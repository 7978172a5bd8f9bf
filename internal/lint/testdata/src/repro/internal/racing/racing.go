// Package racing is a fixture backend-seam consumer: the resilient
// stub must stay portable across simnet and livenet, so it may import
// the seam (and other consumers) but never the simulation stack.
package racing

import (
	"repro/internal/netapi"
	"repro/internal/netem" // want `racing is backend-portable and must not import the network emulator`
	"repro/internal/sim"   // want `racing is backend-portable and must not import the simulation kernel`
)

type Stub struct {
	rt netapi.Runtime
	h  netem.Host
}

var _ = sim.DeriveSeed

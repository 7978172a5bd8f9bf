// Package dox is a fixture backend-seam consumer: it may import the
// seam but never the simulation stack behind it.
package dox

import (
	"repro/internal/netapi"
	"repro/internal/netem" // want `dox is backend-portable and must not import the network emulator`
	"repro/internal/sim"   // want `dox is backend-portable and must not import the simulation kernel`
)

type Client struct {
	rt netapi.Runtime
	h  netem.Host
}

var _ = sim.DeriveSeed

// Package tlsmini is a fixture codec: it is in the live backend's
// import graph, so it may import neither the kernel nor the emulator.
package tlsmini

import (
	"repro/internal/netem" // want `tlsmini is backend-portable and must not import the network emulator`
	"repro/internal/sim"   // want `tlsmini is backend-portable and must not import the simulation kernel`
)

type Conn struct{ h netem.Host }

var _ = sim.DeriveSeed

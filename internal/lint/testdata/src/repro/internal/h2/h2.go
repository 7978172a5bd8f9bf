// Package h2 is a fixture backend-seam consumer that reaches into the
// simulation kernel: the import is flagged once, not each use of it.
package h2

import "repro/internal/sim" // want `h2 is backend-portable and must not import the simulation kernel`

type Conn struct {
	w *sim.World
}

func Dial(w *sim.World) *Conn {
	return &Conn{w: w}
}

// Package measurelike shows the backendpurity rule's scope: measurement
// orchestration is not backend-portable, so it may hold sim.World.
package measurelike

import "repro/internal/sim"

type Campaign struct{ w *sim.World }

func Run(w *sim.World) *Campaign { return &Campaign{w: w} }

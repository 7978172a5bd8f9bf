package hotuser

import (
	"fmt"

	"repro/internal/sim"
)

type conn struct {
	id   int
	name string
}

func step(arg any) {}

func tick() {}

//simlint:hotpath
func BadFmt(c *conn) string {
	return fmt.Sprintf("conn-%d", c.id) // want `fmt\.Sprintf allocates on a hot path`
}

//simlint:hotpath
func BadClosure(w *sim.World, c *conn) {
	w.Go(func() { // want `closure capturing c allocates on a hot path; spawn the task through netapi\.Spawner`
		c.id++
	})
}

//simlint:hotpath
func BadBoxing(w *sim.World, c *conn) {
	w.GoCall(step, *c) // want `argument boxes repro/internal/hotuser\.conn into any`
}

//simlint:hotpath
func BadAssignBoxing(c *conn) {
	var box any
	box = *c // want `assignment boxes repro/internal/hotuser\.conn into any`
	_ = box
}

//simlint:hotpath
func BadReturnBoxing(c *conn) any {
	v := *c
	return v // want `return boxes repro/internal/hotuser\.conn into any`
}

// Pre-bound callbacks with pointer-shaped args are the sanctioned
// pattern: a pointer in an interface word does not allocate.
//
//simlint:hotpath
func PointerOK(w *sim.World, c *conn) {
	w.GoCall(step, c)
}

// A func literal that captures nothing is a static closure: free.
//
//simlint:hotpath
func NoCaptureOK(w *sim.World) {
	w.Go(func() { tick() })
}

// ColdFmt is not marked, so nothing is flagged.
func ColdFmt(c *conn) string {
	return fmt.Sprintf("conn-%d", c.id)
}

//simlint:hotpath
func AllowedFmt(c *conn) string {
	return fmt.Sprintf("conn-%d", c.id) //simlint:allow hotalloc deadlock-diagnostic path, runs at most once per campaign
}

package main

import (
	"runtime"
	"sync"
	"time"
)

// span is one timed interval recorded from the benchmark's own files,
// around a call into a layer. Parent is the ID of the span that caused
// it (0 for a root); Start and End are offsets from the tracer's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how untraced runs pay nothing for it.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.epoch)})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = time.Since(t.epoch)
}

// in records fn as one span under parent.
func (t *tracer) in(parent int, name string, fn func()) {
	id := t.begin(parent, name)
	fn()
	t.end(id)
}

// metered runs fn as one span under parent and returns what it cost:
// wall time, and the allocation count and bytes of the whole process
// while it ran. It works on a nil tracer, recording no span.
func (t *tracer) metered(parent int, name string, fn func()) (wall time.Duration, mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := t.begin(parent, name)
	t0 := time.Now()
	fn()
	wall = time.Since(t0)
	t.end(id)
	runtime.ReadMemStats(&after)
	return wall, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

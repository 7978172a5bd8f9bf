// Package deadpeer declares the interface deadlib.Engine satisfies.
package deadpeer

// Sink receives counts.
type Sink interface{ Put(n int) }

// Drain feeds s; cmd/deaduser calls it.
func Drain(s Sink) { s.Put(1) }

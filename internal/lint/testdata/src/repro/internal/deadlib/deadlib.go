// Package deadlib is the deadapi fixture library: each declaration is
// kept alive, or not, by exactly one kind of reference.
package deadlib

// Config is a fixture knob struct.
type Config struct {
	Used     int // written by cmd/deaduser
	TestKnob int // written only by deadpeer's test
	Knob     int // want `deadlib.Config.Knob is never written`
}

func (c Config) withDefaults() Config {
	if c.Knob == 0 {
		c.Knob = 3
	}
	if c.TestKnob == 0 {
		c.TestKnob = 4
	}
	return c
}

// New is called by cmd/deaduser.
func New(c Config) *Engine { return &Engine{cfg: c.withDefaults()} }

// Engine is a fixture type.
type Engine struct{ cfg Config }

// Put satisfies deadpeer.Sink, which nothing calls directly.
func (e *Engine) Put(n int) { e.cfg.Used += n }

// String is live by name.
func (e *Engine) String() string { return "engine" }

// Unused is referenced by nothing.
func Unused() int { return 1 } // want `deadlib.Unused is never referenced`

// Knobs is a method only deadlib's own test calls.
func (e *Engine) Knobs() int { return e.cfg.Knob } // want `deadlib.Engine.Knobs is referenced only by its own package's tests`

func helper() int { return 2 } // want `deadlib.helper is referenced only by its own package's tests`

// UsedByPeerTest is referenced only by another package's test.
func UsedByPeerTest() int { return 3 }

// Reference is the model its own test compares New against.
//
//simlint:allow deadapi reference model for TestEngine
func Reference() int { return 4 }

const (
	// CodeA is on the wire.
	CodeA = iota
	//simlint:allow deadapi wire-format table
	CodeB
	CodeC // want `deadlib.CodeC is never referenced`
)

// recurse calls only itself.
func recurse(n int) int { // want `deadlib.recurse is never referenced`
	if n == 0 {
		return 0
	}
	return recurse(n - 1)
}

var _ = CodeA

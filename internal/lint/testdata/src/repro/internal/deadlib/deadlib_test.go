package deadlib

import "testing"

func TestEngine(t *testing.T) {
	e := New(Config{})
	if e.Knobs()+helper() != Reference()+1 {
		t.Fatal("mismatch")
	}
}

package deadpeer_test

import (
	"testing"

	"repro/internal/deadlib"
)

func TestPeer(t *testing.T) {
	_ = deadlib.Config{TestKnob: 1}
	if deadlib.UsedByPeerTest() != 3 {
		t.Fatal("mismatch")
	}
}

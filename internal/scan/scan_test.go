package scan

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dox"
	"repro/internal/netem"
	"repro/internal/sim"
)

func TestAssignSupportPaperNumbers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	spec := PaperSpec()
	sup, err := AssignSupport(rng, spec)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[dox.Protocol]int{}
	verified := 0
	for _, m := range sup {
		all := true
		for _, p := range []dox.Protocol{dox.DoUDP, dox.DoTCP, dox.DoT, dox.DoH} {
			if m[p] {
				counts[p]++
			} else {
				all = false
			}
		}
		if all {
			verified++
		}
	}
	for p, want := range spec.Support {
		if counts[p] != want {
			t.Errorf("%v support = %d, want %d", p, counts[p], want)
		}
	}
	if verified != spec.FullIntersection {
		t.Errorf("verified = %d, want %d", verified, spec.FullIntersection)
	}
}

func TestAssignSupportPropertyConsistent(t *testing.T) {
	f := func(seed int64, a, b, c, d uint8, inter uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100
		full := int(inter) % 40
		spec := PopulationSpec{
			DoQResolvers: n,
			Support: map[dox.Protocol]int{
				dox.DoUDP: full + int(a)%40,
				dox.DoTCP: full + int(b)%40,
				dox.DoT:   full + int(c)%40,
				dox.DoH:   full + int(d)%40,
			},
			FullIntersection: full,
		}
		sup, err := AssignSupport(rng, spec)
		if err != nil {
			return true // unsatisfiable specs may error
		}
		counts := map[dox.Protocol]int{}
		verified := 0
		for _, m := range sup {
			all := true
			for _, p := range []dox.Protocol{dox.DoUDP, dox.DoTCP, dox.DoT, dox.DoH} {
				if m[p] {
					counts[p]++
				} else {
					all = false
				}
			}
			if all {
				verified++
			}
		}
		if verified != full {
			return false
		}
		for p, want := range spec.Support {
			if counts[p] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestScaledSpecShape(t *testing.T) {
	s := PaperSpec().Scaled(8)
	if s.DoQResolvers != 152 || s.FullIntersection != 39 {
		t.Errorf("scaled = %+v", s)
	}
	if s.Support[dox.DoT] <= s.Support[dox.DoH] {
		t.Error("scaling lost the DoT > DoH ordering")
	}
}

// TestFunnelSmallPopulation runs the full scan pipeline on a 1/16-scale
// population and expects the funnel to match the spec exactly (no loss
// configured).
func TestFunnelSmallPopulation(t *testing.T) {
	w := sim.NewWorld(9)
	net := netem.NewNetwork(w)
	net.SetDefaultPath(netem.PathParams{Delay: 20 * time.Millisecond})
	rng := rand.New(rand.NewSource(9))
	spec := PaperSpec().Scaled(16)
	plans, err := PlanPopulation(rng, spec)
	if err != nil {
		t.Fatal(err)
	}
	targets, err := BuildTargets(net, rng.Int63(), plans, 0, len(plans))
	if err != nil {
		t.Fatal(err)
	}
	pop := &Population{Targets: targets, Spec: spec}
	scanner := &Scanner{
		Host: net.Host(netip.MustParseAddr("10.9.0.1")),
		Rand: rng,
	}
	var res FunnelResult
	w.Go(func() { res = scanner.Run(pop) })
	w.Run()

	if res.Probed != len(pop.Targets) {
		t.Errorf("probed %d of %d", res.Probed, len(pop.Targets))
	}
	wantResponsive := spec.DoQResolvers + spec.QUICNonDoQ
	if res.QUICResponsive != wantResponsive {
		t.Errorf("QUIC responsive = %d, want %d", res.QUICResponsive, wantResponsive)
	}
	if res.DoQVerified != spec.DoQResolvers {
		t.Errorf("DoQ verified = %d, want %d", res.DoQVerified, spec.DoQResolvers)
	}
	for p, want := range spec.Support {
		if res.Support[p] != want {
			t.Errorf("%v = %d, want %d", p, res.Support[p], want)
		}
	}
	if res.Verified != spec.FullIntersection {
		t.Errorf("verified = %d, want %d", res.Verified, spec.FullIntersection)
	}
}

// TestFunnelShardedMatchesSpec runs the sharded funnel and expects the
// lossless scan to recover the spec exactly, like the single-World path.
func TestFunnelShardedMatchesSpec(t *testing.T) {
	spec := PaperSpec().Scaled(16)
	res, err := RunFunnel(FunnelConfig{Seed: 9, Spec: spec, Parallelism: 4, TargetBlock: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.DoQVerified != spec.DoQResolvers {
		t.Errorf("DoQ verified = %d, want %d", res.DoQVerified, spec.DoQResolvers)
	}
	if res.Verified != spec.FullIntersection {
		t.Errorf("verified = %d, want %d", res.Verified, spec.FullIntersection)
	}
	for p, want := range spec.Support {
		if res.Support[p] != want {
			t.Errorf("%v = %d, want %d", p, res.Support[p], want)
		}
	}
}

// TestFunnelDeterministicAcrossParallelism enforces the engine guarantee
// on the scan: identical funnels (including the per-continent and per-AS
// maps) at parallelism 1 and N.
func TestFunnelDeterministicAcrossParallelism(t *testing.T) {
	run := func(par int) FunnelResult {
		res, err := RunFunnel(FunnelConfig{
			Seed:        9,
			Spec:        PaperSpec().Scaled(16),
			Parallelism: par,
			TargetBlock: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1)
	for _, par := range []int{2, 8} {
		if got := run(par); !reflect.DeepEqual(base, got) {
			t.Fatalf("parallelism %d funnel differs:\n1: %+v\n%d: %+v", par, base, par, got)
		}
	}
}

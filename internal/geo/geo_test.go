package geo

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestDistanceKnownPairs(t *testing.T) {
	frankfurt := Coord{50.11, 8.68}
	singapore := Coord{1.35, 103.82}
	d := DistanceKm(frankfurt, singapore)
	if d < 9500 || d > 10800 {
		t.Errorf("Frankfurt-Singapore = %.0f km, want ~10300", d)
	}
	if z := DistanceKm(frankfurt, frankfurt); z > 0.001 {
		t.Errorf("zero distance = %f", z)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		a := Coord{rng.Float64()*160 - 80, rng.Float64()*360 - 180}
		b := Coord{rng.Float64()*160 - 80, rng.Float64()*360 - 180}
		d1, d2 := DistanceKm(a, b), DistanceKm(b, a)
		if diff := d1 - d2; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("asymmetric distance: %f vs %f", d1, d2)
		}
	}
}

func TestPlaceResolversCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	places := PlaceResolvers(rng, nil)
	if len(places) != 313 {
		t.Fatalf("placed %d resolvers, want 313", len(places))
	}
	got := map[Continent]int{}
	for _, p := range places {
		got[p.Continent]++
	}
	for c, want := range VerifiedResolverCounts {
		if got[c] != want {
			t.Errorf("%v: %d resolvers, want %d", c, got[c], want)
		}
	}
}

func TestASNDistributionMatchesPaper(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	places := PlaceResolvers(rng, nil)
	byAS := map[string]int{}
	for _, p := range places {
		if p.ASN == "" {
			t.Fatal("resolver without ASN")
		}
		byAS[p.ASN]++
	}
	if byAS["ORACLE"] != 47 {
		t.Errorf("ORACLE hosts %d, want 47", byAS["ORACLE"])
	}
	if byAS["DIGITALOCEAN"] != 20 {
		t.Errorf("DIGITALOCEAN hosts %d, want 20", byAS["DIGITALOCEAN"])
	}
	for as, n := range byAS {
		switch as {
		case "ORACLE", "DIGITALOCEAN", "MNGTNET", "OVHCLOUD":
		default:
			if n > 12 {
				t.Errorf("small AS %s hosts %d resolvers, paper says <= 12", as, n)
			}
		}
	}
}

// TestVantageMedianRTTOrdering checks that the calibrated path model
// reproduces the ordering of Fig. 2b: EU sees the lowest median RTT to
// the verified resolver population, AF the highest, and all vantage
// points fall within a plausible band around the paper's medians.
func TestVantageMedianRTTOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	places := PlaceResolvers(rng, nil)
	medians := map[string]time.Duration{}
	for _, vp := range VantagePoints() {
		rtts := make([]time.Duration, 0, len(places))
		for _, p := range places {
			rtts = append(rtts, 2*OneWayDelay(vp.Coord, p.Coord))
		}
		sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
		medians[vp.Name] = rtts[len(rtts)/2]
	}
	// Paper Fig. 2b (DoUDP resolve time, ~1 RTT): EU ~106ms ... AF ~229ms.
	within := func(name string, lo, hi time.Duration) {
		m := medians[name]
		if m < lo || m > hi {
			t.Errorf("%s median RTT = %v, want in [%v, %v]", name, m, lo, hi)
		}
	}
	within("EU", 40*time.Millisecond, 170*time.Millisecond)
	within("AS", 80*time.Millisecond, 230*time.Millisecond)
	within("NA", 90*time.Millisecond, 230*time.Millisecond)
	within("AF", 150*time.Millisecond, 320*time.Millisecond)
	within("OC", 140*time.Millisecond, 300*time.Millisecond)
	within("SA", 150*time.Millisecond, 300*time.Millisecond)
	if medians["EU"] >= medians["AF"] {
		t.Errorf("EU median (%v) should be below AF median (%v)", medians["EU"], medians["AF"])
	}
	t.Logf("median RTTs: %v", medians)
}

func TestOneWayDelayMonotonicInDistance(t *testing.T) {
	a := Coord{0, 0}
	prev := time.Duration(0)
	for lon := 1.0; lon <= 180; lon += 10 {
		d := OneWayDelay(a, Coord{0, lon})
		if d <= prev {
			t.Fatalf("delay not monotonic at lon=%v: %v <= %v", lon, d, prev)
		}
		prev = d
	}
}

func TestVantagePointsOnePerContinent(t *testing.T) {
	seen := map[Continent]bool{}
	for _, vp := range VantagePoints() {
		if seen[vp.Continent] {
			t.Errorf("duplicate vantage point for %v", vp.Continent)
		}
		seen[vp.Continent] = true
	}
	if len(seen) != 6 {
		t.Errorf("%d continents covered, want 6", len(seen))
	}
}

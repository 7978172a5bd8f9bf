// Package geo models the geography of the measurement study: the six
// Amazon EC2 vantage points (one per continent), the placement of the 313
// verified DoX resolvers (Fig. 1 of the paper: EU 130, AS 128, NA 49, and
// AF/OC/SA 2 each), their Autonomous System assignment, and the mapping
// from great-circle distance to network propagation delay.
package geo

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Continent identifies one of the six continents of the study.
type Continent int

// Continents in the paper's ordering (by number of verified resolvers).
const (
	EU Continent = iota
	AS
	NA
	AF
	OC
	SA
)

var continentNames = [...]string{"EU", "AS", "NA", "AF", "OC", "SA"}

func (c Continent) String() string {
	if c < 0 || int(c) >= len(continentNames) {
		return fmt.Sprintf("Continent(%d)", int(c))
	}
	return continentNames[c]
}

// Continents lists all continents in paper order.
var Continents = []Continent{EU, AS, NA, AF, OC, SA}

// Coord is a geographic coordinate in degrees.
type Coord struct {
	Lat, Lon float64
}

// VantagePoint is one of the study's six EC2 instances.
type VantagePoint struct {
	Name      string
	Region    string
	Continent Continent
	Coord     Coord
}

// VantagePoints returns the six vantage points, one per continent, at the
// AWS regions used by distributed-measurement studies of this kind.
func VantagePoints() []VantagePoint {
	return []VantagePoint{
		{Name: "EU", Region: "eu-central-1", Continent: EU, Coord: Coord{50.11, 8.68}},      // Frankfurt
		{Name: "AS", Region: "ap-southeast-1", Continent: AS, Coord: Coord{1.35, 103.82}},   // Singapore
		{Name: "NA", Region: "us-east-1", Continent: NA, Coord: Coord{38.95, -77.45}},       // N. Virginia
		{Name: "AF", Region: "af-south-1", Continent: AF, Coord: Coord{-33.93, 18.42}},      // Cape Town
		{Name: "OC", Region: "ap-southeast-2", Continent: OC, Coord: Coord{-33.87, 151.21}}, // Sydney
		{Name: "SA", Region: "sa-east-1", Continent: SA, Coord: Coord{-23.55, -46.63}},      // Sao Paulo
	}
}

// anchor is a population/hosting center around which resolvers cluster.
type anchor struct {
	coord  Coord
	weight int
}

var anchors = map[Continent][]anchor{
	EU: {
		{Coord{50.11, 8.68}, 4},  // Frankfurt
		{Coord{52.37, 4.90}, 3},  // Amsterdam
		{Coord{48.86, 2.35}, 2},  // Paris
		{Coord{51.51, -0.13}, 2}, // London
		{Coord{55.75, 37.62}, 2}, // Moscow
		{Coord{41.01, 28.98}, 1}, // Istanbul
		{Coord{59.33, 18.07}, 1}, // Stockholm
	},
	AS: {
		{Coord{1.35, 103.82}, 3},  // Singapore
		{Coord{35.68, 139.69}, 2}, // Tokyo
		{Coord{22.32, 114.17}, 2}, // Hong Kong
		{Coord{37.57, 126.98}, 1}, // Seoul
		{Coord{19.08, 72.88}, 2},  // Mumbai
		{Coord{25.20, 55.27}, 1},  // Dubai
		{Coord{39.90, 116.40}, 1}, // Beijing
	},
	NA: {
		{Coord{38.95, -77.45}, 3},  // Ashburn
		{Coord{37.34, -121.89}, 2}, // San Jose
		{Coord{41.88, -87.63}, 1},  // Chicago
		{Coord{32.78, -96.80}, 1},  // Dallas
		{Coord{43.65, -79.38}, 1},  // Toronto
	},
	AF: {
		{Coord{-26.20, 28.05}, 1}, // Johannesburg
		{Coord{30.04, 31.24}, 1},  // Cairo
	},
	OC: {
		{Coord{-33.87, 151.21}, 2}, // Sydney
		{Coord{-36.85, 174.76}, 1}, // Auckland
	},
	SA: {
		{Coord{-23.55, -46.63}, 2}, // Sao Paulo
		{Coord{-34.60, -58.38}, 1}, // Buenos Aires
	},
}

// VerifiedResolverCounts is the paper's per-continent count of the 313
// verified DoX resolvers (Fig. 1).
var VerifiedResolverCounts = map[Continent]int{
	EU: 130, AS: 128, NA: 49, AF: 2, OC: 2, SA: 2,
}

// Place is a geolocated resolver site.
type Place struct {
	Continent Continent
	Coord     Coord
	ASN       string
}

// PlaceResolvers places n resolvers per continent following the anchor
// distribution, with coordinates jittered around hosting centers, and
// assigns Autonomous Systems per the paper's distribution. The counts map
// defaults to VerifiedResolverCounts when nil.
func PlaceResolvers(rng *rand.Rand, counts map[Continent]int) []Place {
	if counts == nil {
		counts = VerifiedResolverCounts
	}
	var places []Place
	for _, c := range Continents {
		n := counts[c]
		as := anchors[c]
		total := 0
		for _, a := range as {
			total += a.weight
		}
		for i := 0; i < n; i++ {
			pick := rng.Intn(total)
			var chosen anchor
			for _, a := range as {
				if pick < a.weight {
					chosen = a
					break
				}
				pick -= a.weight
			}
			// Jitter within ~600 km of the anchor.
			lat := chosen.coord.Lat + rng.NormFloat64()*2.5
			lon := chosen.coord.Lon + rng.NormFloat64()*2.5
			places = append(places, Place{Continent: c, Coord: Coord{lat, lon}})
		}
	}
	assignASNs(rng, places)
	return places
}

// assignASNs reproduces the paper's Autonomous System distribution: the
// four named systems host 47/20/18/16 of the 313 resolvers and the
// remaining 212 are spread over 103 further ASes with at most 12 each.
func assignASNs(rng *rand.Rand, places []Place) {
	n := len(places)
	// Scale the paper's top-AS counts to the population size.
	scale := func(k int) int {
		v := k * n / 313
		if v < 1 && n > 0 {
			v = 1
		}
		return v
	}
	type asQuota struct {
		name  string
		quota int
	}
	var quotas []asQuota
	assigned := 0
	for _, top := range []asQuota{
		{"ORACLE", scale(47)},
		{"DIGITALOCEAN", scale(20)},
		{"MNGTNET", scale(18)},
		{"OVHCLOUD", scale(16)},
	} {
		if assigned+top.quota > n {
			top.quota = n - assigned
		}
		if top.quota <= 0 {
			break
		}
		quotas = append(quotas, top)
		assigned += top.quota
	}
	// Remaining resolvers go to small ASes (<=12 each in the paper).
	small := 0
	for assigned < n {
		small++
		sz := 1 + rng.Intn(12)
		if assigned+sz > n {
			sz = n - assigned
		}
		quotas = append(quotas, asQuota{fmt.Sprintf("AS-%03d", small), sz})
		assigned += sz
	}
	perm := rng.Perm(n)
	idx := 0
	for _, q := range quotas {
		for i := 0; i < q.quota; i++ {
			places[perm[idx]].ASN = q.name
			idx++
		}
	}
}

// earthRadiusKm is the mean Earth radius.
const earthRadiusKm = 6371.0

// DistanceKm returns the great-circle distance between two coordinates.
func DistanceKm(a, b Coord) float64 {
	la1 := a.Lat * math.Pi / 180
	la2 := b.Lat * math.Pi / 180
	dla := (b.Lat - a.Lat) * math.Pi / 180
	dlo := (b.Lon - a.Lon) * math.Pi / 180
	h := math.Sin(dla/2)*math.Sin(dla/2) +
		math.Cos(la1)*math.Cos(la2)*math.Sin(dlo/2)*math.Sin(dlo/2)
	return 2 * earthRadiusKm * math.Asin(math.Sqrt(h))
}

// Path model calibration. Signals propagate at roughly 2/3 c in fiber and
// routes are longer than great circles; routeStretch folds both the
// detour factor and queueing into one multiplier. baseDelay covers the
// fixed cost of first/last-mile hops.
const (
	fiberKmPerMs = 200.0 // ~2/3 speed of light, km per millisecond
	routeStretch = 1.9
	baseDelay    = 4 * time.Millisecond
)

// OneWayDelay converts a geodesic distance into a one-way propagation
// delay under the calibrated path model.
func OneWayDelay(a, b Coord) time.Duration {
	km := DistanceKm(a, b)
	prop := time.Duration(km / fiberKmPerMs * routeStretch * float64(time.Millisecond))
	return baseDelay + prop
}

package resolver

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/geo"
	"repro/internal/netapi/simnet"
	"repro/internal/netem"
	"repro/internal/sim"
)

// Vantage is one measurement host at a geographic location.
type Vantage struct {
	geo.VantagePoint
	Host *netem.Host
	// Backend is the vantage's netapi seam over Host, sharing the
	// Universe's random stream; clients built on it draw from the same
	// sequence the pre-seam Options.Rand plumbing produced.
	Backend *simnet.Backend
	// Index is the vantage's global index in the blueprint (stable across
	// partitioned instantiations).
	Index int
}

// Universe is a simulated measurement testbed bound to one World: vantage
// points and a population of resolvers placed per the paper's Fig. 1,
// wired together with distance-derived path delays. A Universe may be the
// whole blueprint or a vantage/resolver partition of it (see
// Blueprint.Instantiate); Resolvers[i] always has global index
// ResolverLo+i.
type Universe struct {
	W         *sim.World
	Net       *netem.Network
	Vantages  []*Vantage
	Resolvers []*Resolver
	Rand      *rand.Rand
	// ResolverLo is the global (blueprint) index of Resolvers[0].
	ResolverLo int
}

// UniverseConfig parameterizes testbed construction.
type UniverseConfig struct {
	Seed int64
	// ResolverCounts defaults to the paper's 313-resolver distribution.
	// Tests and benchmarks use scaled-down counts with the same shape.
	ResolverCounts map[geo.Continent]int
	// Loss is the per-path datagram drop rate. The zero value selects
	// DefaultLoss; a truly lossless universe — the clean cached
	// baseline of E17 — is requested with the NoLoss sentinel (any
	// negative value), since 0 cannot distinguish "unset" from "none".
	Loss float64
	// Access names the netem access profile every vantage's host sits
	// behind ("fiber" when empty — the paper's EC2 datacenter uplinks).
	// The E19–E21 grids rebuild the same population with each profile.
	Access string
	// PathPhases, when non-empty, installs a time-varying schedule on
	// every vantage<->resolver path: from each phase's At (virtual time)
	// the path's loss model is replaced by the phase's Loss/Burst, while
	// delay and jitter stay as they were. Phases express mid-campaign
	// degradation and recovery (E20's burst-loss windows).
	PathPhases []PathPhase
	// Population tunes profile synthesis.
	Population PopulationParams
	// MutateProfile lets ablations rewrite each profile before start
	// (e.g. enable 0-RTT everywhere for E11).
	MutateProfile func(*Profile)
}

// PathPhase is one phase of a universe-wide path schedule. Unlike
// UniverseConfig.Loss, a phase's Loss is literal: 0 means lossless.
type PathPhase struct {
	// At is the virtual time the phase takes effect.
	At time.Duration
	// Loss is the independent per-datagram drop probability.
	Loss float64
	// Burst is the Gilbert–Elliott burst-loss model.
	Burst netem.BurstLoss
}

// OutagePhases builds the three-phase path schedule of a total upstream
// outage: the base loss before start, 100% datagram loss inside
// [start, end), and the base loss again after recovery. E23 and the
// serve-stale tests install it via UniverseConfig.PathPhases to make
// every resolver unreachable for the window while the vantage hosts
// stay up.
func OutagePhases(baseLoss float64, start, end time.Duration) []PathPhase {
	return []PathPhase{
		{At: 0, Loss: baseLoss},
		{At: start, Loss: 1},
		{At: end, Loss: baseLoss},
	}
}

// ScaledCounts returns the paper's continent distribution scaled to
// roughly n resolvers (at least one per continent).
func ScaledCounts(n int) map[geo.Continent]int {
	out := make(map[geo.Continent]int, len(geo.VerifiedResolverCounts))
	for c, v := range geo.VerifiedResolverCounts {
		s := v * n / 313
		if s < 1 {
			s = 1
		}
		out[c] = s
	}
	return out
}

// Blueprint is the World-free description of a universe: the vantage
// list, every resolver's place and synthesized profile, and the path
// parameters. Building the blueprint consumes all construction
// randomness up front, so one blueprint can be instantiated into many
// Worlds — whole, or partitioned by vantage and resolver range — with
// every instantiation seeing exactly the same population. Blueprints are
// immutable after construction and safe for concurrent Instantiate
// calls from parallel campaign shards.
type Blueprint struct {
	Seed     int64
	Loss     float64
	Vantages []geo.VantagePoint
	Profiles []Profile
	// Access is the netem access profile attached to every vantage host.
	Access netem.AccessProfile
	// Phases is the time-varying loss schedule applied to every
	// vantage<->resolver path (empty: static paths).
	Phases []PathPhase
}

// NoLoss is the UniverseConfig.Loss sentinel for a truly lossless
// universe. Loss == 0 means "use DefaultLoss" (the config trap this
// sentinel resolves), so a zero-loss path needs an explicit request.
const NoLoss = -1.0

// PathJitter is the per-path delay jitter bound of every
// vantage<->resolver path.
const PathJitter = time.Millisecond

// DefaultLoss is the per-path datagram drop rate every campaign runs
// at (0.3%), the source of the paper's retransmission-tail
// observations.
const DefaultLoss = 0.003

// NewBlueprint synthesizes the population described by cfg without
// binding it to a World.
func NewBlueprint(cfg UniverseConfig) (*Blueprint, error) {
	switch {
	case cfg.Loss < 0: // NoLoss (or any negative): genuinely lossless
		cfg.Loss = 0
	case cfg.Loss == 0:
		cfg.Loss = DefaultLoss
	}
	if cfg.Population == (PopulationParams{}) {
		cfg.Population = DefaultPopulation()
	}
	if cfg.Access == "" {
		cfg.Access = "fiber"
	}
	access, err := netem.ProfileByName(cfg.Access)
	if err != nil {
		return nil, err
	}
	b := &Blueprint{
		Seed:     cfg.Seed,
		Loss:     cfg.Loss,
		Vantages: geo.VantagePoints(),
		Access:   access,
		Phases:   append([]PathPhase(nil), cfg.PathPhases...),
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	places := geo.PlaceResolvers(rng, cfg.ResolverCounts)
	for i, place := range places {
		addr := netip.AddrFrom4([4]byte{203, byte(i/250) + 1, byte(i % 250), 53})
		prof := SynthesizeProfile(rng, fmt.Sprintf("resolver-%03d.%s.example", i, place.Continent), addr, place, cfg.Population)
		if cfg.MutateProfile != nil {
			cfg.MutateProfile(&prof)
		}
		b.Profiles = append(b.Profiles, prof)
	}
	return b, nil
}

// Scope selects the partition of a blueprint to instantiate. The zero
// value instantiates everything.
type Scope struct {
	// Vantages lists global vantage indices to include; nil means all.
	Vantages []int
	// ResolverLo and ResolverHi bound the global resolver range [Lo, Hi);
	// Hi == 0 means the whole population.
	ResolverLo, ResolverHi int
}

// Instantiate builds a running Universe for the scoped partition inside
// a fresh World seeded with seed. Everything that identifies a resolver
// (address, profile, server randomness) is keyed by its global index, so
// a resolver behaves identically whether it is instantiated as part of
// the full universe or inside a single-shard partition.
func (b *Blueprint) Instantiate(seed int64, sc Scope) (*Universe, error) {
	w := sim.NewWorld(seed)
	net := netem.NewNetwork(w)
	u := &Universe{
		W:   w,
		Net: net,
		// The client-side random stream is derived, not seed-adjacent, so
		// shard worlds do not correlate with each other.
		Rand: rand.New(rand.NewSource(sim.DeriveSeed(seed, 0xC11E47))),
	}

	vantages := sc.Vantages
	if vantages == nil {
		vantages = make([]int, len(b.Vantages))
		for i := range vantages {
			vantages[i] = i
		}
	}
	for _, i := range vantages {
		addr := netip.AddrFrom4([4]byte{10, 1, 0, byte(i + 1)})
		host := net.Host(addr)
		// Loopback for the local DNS proxy.
		net.SetPath(addr, addr, netem.PathParams{Delay: 50 * time.Microsecond})
		// The vantage's access network: every datagram it exchanges with
		// a resolver — and every analytic content download the browser
		// performs — traverses this link.
		net.SetAccessLink(addr, b.Access)
		u.Vantages = append(u.Vantages, &Vantage{VantagePoint: b.Vantages[i], Host: host, Backend: simnet.New(host, u.Rand), Index: i})
	}

	lo, hi := sc.ResolverLo, sc.ResolverHi
	if hi <= 0 || hi > len(b.Profiles) {
		hi = len(b.Profiles)
	}
	u.ResolverLo = lo
	for gi := lo; gi < hi; gi++ {
		prof := b.Profiles[gi]
		host := net.Host(prof.Addr)
		res, err := Start(host, prof, rand.New(rand.NewSource(b.Seed+int64(gi)+100)))
		if err != nil {
			return nil, err
		}
		u.Resolvers = append(u.Resolvers, res)
		for _, v := range u.Vantages {
			delay := geo.OneWayDelay(v.Coord, prof.Place.Coord)
			base := netem.PathParams{
				Delay:  delay,
				Jitter: PathJitter,
				Loss:   b.Loss,
			}
			u.Net.SetSymmetricPath(v.Host.Addr(), prof.Addr, base)
			if len(b.Phases) > 0 {
				steps := make([]netem.PathStep, len(b.Phases))
				for pi, ph := range b.Phases {
					params := base
					params.Loss = ph.Loss
					params.Burst = ph.Burst
					steps[pi] = netem.PathStep{At: ph.At, Params: params}
				}
				u.Net.SetSymmetricPathSchedule(v.Host.Addr(), prof.Addr, steps)
			}
		}
	}
	return u, nil
}

// NewUniverse builds and starts the full testbed in one World — the
// single-shard convenience path used by tests and examples. Sharded
// campaigns build a Blueprint once and Instantiate partitions of it.
func NewUniverse(cfg UniverseConfig) (*Universe, error) {
	b, err := NewBlueprint(cfg)
	if err != nil {
		return nil, err
	}
	return b.Instantiate(cfg.Seed, Scope{})
}

// GlobalResolverIdx translates a local index into Resolvers to the
// resolver's global index in the blueprint.
func (u *Universe) GlobalResolverIdx(i int) int { return u.ResolverLo + i }

// PathRTT returns the configured round-trip time between a vantage and a
// resolver (without jitter).
func (u *Universe) PathRTT(v *Vantage, r *Resolver) time.Duration {
	return 2 * u.Net.Path(v.Host.Addr(), r.Addr).Delay
}

// Package racing implements a happy-eyeballs-style resilient stub: an
// ordered ladder of DNS transports raced with staggered starts, so a
// vantage behind a hostile middlebox (UDP blackholed, port 853 blocked,
// QUIC eaten) still resolves — it just pays a bounded fallback penalty
// instead of hanging on its preferred transport.
//
// The stub is written entirely against the netapi backend seam: it
// schedules with netapi.Runtime, resolves through dox.Client, and never
// touches the simulation stack, so the identical racing logic runs on
// simnet inside the campaigns and on livenet against real resolvers.
// simlint's backendpurity analyzer enforces the boundary.
//
// Race shape (modelled on RFC 8305 happy eyeballs, transposed from
// address families to DNS transports):
//
//   - The ladder's first rung starts immediately; each later rung
//     starts DefaultStagger after the one before it, unless a winner
//     has already been declared.
//   - Each rung attempt (connect + query) runs under a budget that
//     starts at DefaultAttemptTimeout and doubles per retry up to
//     DefaultBackoffMax; a rung gets one retry per race.
//   - The first rung to complete a query wins; every other attempt is
//     cancelled — attempts that already hold a session close it, and
//     attempts still blocked in a handshake are abandoned (they close
//     their session themselves when the transport gives up).
//   - The winner is sticky: later Resolve calls reuse its session
//     directly. Every ReprobeInterval a sticky winner below the top of
//     the ladder is re-raced against the more-preferred rungs, so a
//     lifted middlebox block lets the stub climb back to its preferred
//     transport.
//
// The package also provides Failover, the multi-upstream health
// tracker behind E27: eject an upstream after consecutive timeouts,
// with jittered exponential cooldown before it is retried.
package racing

import (
	"errors"
	"sync"
	"time"

	"repro/internal/dnsmsg"
	"repro/internal/dox"
	"repro/internal/netapi"
)

// DefaultLadder is the racing order: encrypted UDP transports first
// (the paper's headline finding is that DoQ is the fastest encrypted
// transport), TCP-based encrypted transports as middleboxes eat UDP,
// and classic Do53 as the last resort.
func DefaultLadder() []dox.Protocol {
	return []dox.Protocol{dox.DoQ, dox.DoH3, dox.DoT, dox.DoH, dox.DoUDP}
}

// Race timing. DefaultStagger is the head start each rung gets over the
// next one (RFC 8305's connection attempt delay); DefaultAttemptTimeout
// is the first connect+query budget of each rung, doubling per retry up
// to DefaultBackoffMax; DefaultReprobeInterval is the default
// Config.ReprobeInterval.
const (
	DefaultStagger         = 250 * time.Millisecond
	DefaultAttemptTimeout  = 2 * time.Second
	DefaultBackoffMax      = 8 * time.Second
	DefaultReprobeInterval = 60 * time.Second

	// retries is how many extra attempts each rung gets within one
	// race after its first budget expires.
	retries = 1
)

// Config parameterizes a racing stub.
type Config struct {
	// Options is the per-transport session configuration (Backend,
	// Resolver, TLS). Backend is required; it supplies the runtime the
	// race is scheduled on.
	Options dox.Options
	// ReprobeInterval is how often a sticky winner below the top of the
	// ladder is re-raced against the more-preferred rungs (default
	// DefaultReprobeInterval). Negative disables re-probing.
	ReprobeInterval time.Duration
}

func (c *Config) withDefaults() Config {
	v := *c
	if v.ReprobeInterval == 0 {
		v.ReprobeInterval = DefaultReprobeInterval
	}
	return v
}

// Metrics counts what the stub did.
type Metrics struct {
	Races    int // full races run
	Attempts int // transport attempts started (across races)
	Sticky   int // Resolve calls served by the sticky session
	// LastRaceTime is how long the most recent race took from first
	// attempt to winning answer — the fallback penalty E25 measures.
	LastRaceTime time.Duration
}

// Stub is a racing resolver client. Campaign code drives one stub per
// vantage task; Resolve is not reentrant.
type Stub struct {
	cfg    Config
	rt     netapi.Runtime
	ladder []dox.Protocol // DefaultLadder

	lock      sync.Locker
	sticky    int // ladder index of the current winner; -1 = none
	stickyC   dox.Client
	lastProbe time.Duration
	metrics   Metrics
}

// New builds a racing stub. cfg.Options.Backend must be set.
func New(cfg Config) *Stub {
	v := cfg.withDefaults()
	return &Stub{
		cfg:    v,
		rt:     v.Options.Backend,
		ladder: DefaultLadder(),
		lock:   v.Options.Backend.NewLock(),
		sticky: -1,
	}
}

// Metrics returns a snapshot of the stub's counters.
func (s *Stub) Metrics() Metrics { return s.metrics }

// Close releases the sticky session.
func (s *Stub) Close() {
	s.lock.Lock()
	c := s.stickyC
	s.stickyC = nil
	s.sticky = -1
	s.lock.Unlock()
	if c != nil {
		c.Close()
	}
}

var errAllFailed = errors.New("racing: all transports failed")

// Resolve answers one query: through the sticky session when one is
// healthy, otherwise by racing the ladder. It returns the answer and
// the transport that produced it.
func (s *Stub) Resolve(q *dnsmsg.Message) (*dnsmsg.Message, dox.Protocol, error) {
	s.lock.Lock()
	c, idx := s.stickyC, s.sticky
	reprobe := c != nil && idx > 0 && s.cfg.ReprobeInterval > 0 &&
		s.rt.Now()-s.lastProbe >= s.cfg.ReprobeInterval
	s.lock.Unlock()

	if c != nil && !reprobe {
		out := s.attempt(s.ladder[idx], c, q, DefaultAttemptTimeout)
		if out.err == nil {
			s.lock.Lock()
			s.metrics.Sticky++
			s.lock.Unlock()
			return out.resp, s.ladder[idx], nil
		}
		// The sticky session went dark (middlebox arrived, resolver
		// rebooted): drop it and fall back to a full race.
		s.dropSticky(c)
		return s.race(q, nil, -1)
	}
	if c != nil {
		// A due re-probe is a race that seeds the sticky session into
		// its own rung: a still-blocked preferred transport loses to
		// the proven one after one stagger rather than stranding the
		// resolve, and a lifted block lets a preferred rung win it
		// back.
		s.lock.Lock()
		s.stickyC = nil
		s.sticky = -1
		s.lock.Unlock()
		return s.race(q, c, idx)
	}
	return s.race(q, nil, -1)
}

func (s *Stub) dropSticky(c dox.Client) {
	s.lock.Lock()
	if s.stickyC == c {
		s.stickyC = nil
		s.sticky = -1
	}
	s.lock.Unlock()
	c.Close()
}

// --- One attempt ---

// attemptOut is the result of one connect+query attempt.
type attemptOut struct {
	client dox.Client
	resp   *dnsmsg.Message
	err    error
}

// attemptBox carries one attempt's coordination state between the rung
// and its subtask: the result future and the abandoned flag the
// subtask checks before handing its session over.
type attemptBox struct {
	stub      *Stub
	lock      sync.Locker
	done      *netapi.Future[attemptOut]
	client    dox.Client // non-nil: reuse this session instead of dialing
	proto     dox.Protocol
	q         *dnsmsg.Message
	abandoned bool
}

func runAttempt(arg any) {
	a := arg.(*attemptBox)
	c := a.client
	var err error
	if c == nil {
		// Keep c a true nil on failure: Connect's concrete constructors
		// return typed nil pointers, which a bare assignment would wrap
		// into a non-nil interface.
		if nc, cerr := dox.Connect(a.proto, a.stub.cfg.Options); cerr != nil {
			err = cerr
		} else {
			c = nc
		}
	}
	var resp *dnsmsg.Message
	if err == nil {
		resp, err = c.Query(a.q)
	}
	a.lock.Lock()
	abandoned := a.abandoned
	a.lock.Unlock()
	if abandoned {
		// The race moved on while this attempt was still in flight;
		// release the session it may have since established.
		if c != nil {
			c.Close()
		}
		return
	}
	if err != nil && c != nil {
		c.Close()
		c = nil
	}
	a.done.Resolve(attemptOut{client: c, resp: resp, err: err})
}

var errAttemptTimeout = errors.New("racing: attempt timed out")

// attempt runs one connect+query attempt under budget. On timeout the
// subtask is abandoned — it cannot be interrupted mid-handshake, so it
// keeps running until its transport gives up, then closes the session
// itself.
func (s *Stub) attempt(proto dox.Protocol, client dox.Client, q *dnsmsg.Message, budget time.Duration) attemptOut {
	a := &attemptBox{
		stub:   s,
		lock:   s.rt.NewLock(),
		done:   netapi.NewFuture[attemptOut](s.rt, "racing-attempt"),
		client: client,
		proto:  proto,
		q:      q,
	}
	s.lock.Lock()
	s.metrics.Attempts++
	s.lock.Unlock()
	s.rt.GoCall(runAttempt, a)
	out, ok := a.done.WaitTimeout(budget)
	if !ok {
		a.lock.Lock()
		a.abandoned = true
		a.lock.Unlock()
		return attemptOut{err: errAttemptTimeout}
	}
	return out
}

// --- The race ---

// raceState is the shared scoreboard of one race.
type raceState struct {
	stub    *Stub
	q       *dnsmsg.Message
	lock    sync.Locker
	winner  *netapi.Future[attemptOut]
	winIdx  int
	decided bool
	pending int // rungs that have not finished
	// started marks rungs whose body has begun, so a rung reached both
	// by its stagger timer and by an early advance runs exactly once.
	started []bool
	// seedC is an existing session handed to rung seedIdx as its first
	// attempt (the re-probe path). Consumed under lock exactly once —
	// by the rung, or by the race's cleanup if the rung never ran.
	seedC   dox.Client
	seedIdx int
}

// takeSeed hands the seeded session to rung idx, once.
func (st *raceState) takeSeed(idx int) dox.Client {
	st.lock.Lock()
	defer st.lock.Unlock()
	if idx != st.seedIdx || st.seedC == nil {
		return nil
	}
	c := st.seedC
	st.seedC = nil
	return c
}

func (st *raceState) isDecided() bool {
	st.lock.Lock()
	defer st.lock.Unlock()
	return st.decided
}

// rungDone retires one rung. The last losing rung fails the winner
// future so the race's Wait unblocks with an error.
func (st *raceState) rungDone() {
	st.lock.Lock()
	st.pending--
	lost := st.pending == 0 && !st.decided
	st.lock.Unlock()
	if lost {
		st.winner.Fail()
	}
}

// rungBox is the GoCall argument of one rung task.
type rungBox struct {
	st  *raceState
	idx int
}

func runRung(arg any) {
	b := arg.(*rungBox)
	b.st.runRung(b.idx)
}

// advance starts the first not-yet-started rung immediately: a rung
// whose attempt failed definitively (port unreachable, injected RST)
// hands its remaining head start to the next transport, per RFC 8305's
// rule that a conclusive failure advances the attempt schedule. This is
// why active rejection costs less than a silent blackhole — the refused
// rung's stagger is not waited out.
func (st *raceState) advance() {
	st.lock.Lock()
	next := -1
	for i, began := range st.started {
		if !began {
			next = i
			break
		}
	}
	st.lock.Unlock()
	if next >= 0 {
		st.stub.rt.GoCall(runRung, &rungBox{st: st, idx: next})
	}
}

func (st *raceState) runRung(idx int) {
	st.lock.Lock()
	if st.started[idx] {
		// Already run via an early advance (or vice versa).
		st.lock.Unlock()
		return
	}
	st.started[idx] = true
	st.lock.Unlock()
	defer st.rungDone()
	s := st.stub
	if st.isDecided() {
		return
	}
	proto := s.ladder[idx]
	budget := DefaultAttemptTimeout
	client := st.takeSeed(idx)
	for try := 0; try <= retries; try++ {
		out := s.attempt(proto, client, st.q, budget)
		client = nil // a reused session is spent after its first attempt
		if out.err == nil {
			st.lock.Lock()
			if st.decided {
				st.lock.Unlock()
				out.client.Close()
				return
			}
			st.decided = true
			st.winIdx = idx
			st.lock.Unlock()
			st.winner.Resolve(out)
			return
		}
		if st.isDecided() {
			return
		}
		// Whatever the failure, the next rung may as well start now; for
		// timeouts past the stagger horizon this is a no-op.
		st.advance()
		// Exponential per-rung backoff: the next attempt gets a doubled
		// budget, capped at DefaultBackoffMax.
		budget *= 2
		if budget > DefaultBackoffMax {
			budget = DefaultBackoffMax
		}
	}
}

// race launches the ladder with staggered starts and waits for the
// first rung to produce an answer. seed (with its ladder index) is an
// existing session reused as that rung's first attempt, or nil.
func (s *Stub) race(q *dnsmsg.Message, seed dox.Client, seedIdx int) (*dnsmsg.Message, dox.Protocol, error) {
	start := s.rt.Now()
	st := &raceState{
		stub:    s,
		q:       q,
		lock:    s.rt.NewLock(),
		winner:  netapi.NewFuture[attemptOut](s.rt, "racing-winner"),
		pending: len(s.ladder),
		started: make([]bool, len(s.ladder)),
		seedC:   seed,
		seedIdx: seedIdx,
	}
	s.lock.Lock()
	s.metrics.Races++
	s.lock.Unlock()
	for i := range s.ladder {
		b := &rungBox{st: st, idx: i}
		if i == 0 {
			s.rt.GoCall(runRung, b)
			continue
		}
		s.rt.AfterFunc(time.Duration(i)*DefaultStagger, func() { runRung(b) })
	}
	out, ok := st.winner.Wait()
	// If the race ended before the seeded rung ever ran, the seed
	// session is still parked on the scoreboard: release it.
	if c := st.takeSeed(seedIdx); c != nil && seed != nil {
		c.Close()
	}
	if !ok {
		return nil, 0, errAllFailed
	}
	now := s.rt.Now()
	s.lock.Lock()
	s.metrics.LastRaceTime = now - start
	s.sticky = st.winIdx
	s.stickyC = out.client
	s.lastProbe = now
	s.lock.Unlock()
	return out.resp, s.ladder[st.winIdx], nil
}

package racing

import (
	"sync"
	"time"

	"repro/internal/netapi"
)

// Failover's thresholds: DefaultEjectAfter consecutive failures eject
// an upstream for DefaultCooldownBase, doubling per consecutive
// ejection up to DefaultCooldownMax. Each cooldown is spread by
// ±jitterFrac, one draw from the runtime's seeded random stream per
// ejection — deterministic on the sim backend.
const (
	DefaultEjectAfter   = 3
	DefaultCooldownBase = 2 * time.Second
	DefaultCooldownMax  = 60 * time.Second
	jitterFrac          = 0.1
)

// upstreamState is one upstream's health record.
type upstreamState struct {
	consecutive  int           // failures since the last success
	ejections    int           // consecutive ejections (backoff exponent)
	ejectedUntil time.Duration // healthy again at this virtual time
}

// Failover tracks the health of an ordered list of upstream resolvers
// and picks the most-preferred healthy one. An upstream that times out
// DefaultEjectAfter times in a row is ejected for a jittered exponential
// cooldown, after which the next Pick may try it again; a success
// clears its record. A readmitted upstream is on probation until that
// success: one more failure re-ejects it immediately with a doubled
// cooldown, so an ongoing outage costs one probe per cooldown rather
// than the full threshold again. The caller owns the address list —
// Failover deals only in indices, which keeps it free of any resolver
// plumbing.
//
// Like Stub, Failover is written against the netapi seam (it needs
// only the clock and the seeded random stream) and works on either
// backend.
type Failover struct {
	rt   netapi.Runtime
	lock sync.Locker
	st   []upstreamState
}

// NewFailover tracks n upstreams, preference-ordered by index.
func NewFailover(rt netapi.Runtime, n int) *Failover {
	return &Failover{
		rt:   rt,
		lock: rt.NewLock(),
		st:   make([]upstreamState, n),
	}
}

// Pick returns the most-preferred upstream that is not ejected. If
// every upstream is ejected it returns the one whose cooldown expires
// soonest (ties to the lower index), so the caller always has a
// target.
func (f *Failover) Pick() int {
	now := f.rt.Now()
	f.lock.Lock()
	defer f.lock.Unlock()
	best, bestUntil := 0, f.st[0].ejectedUntil
	for i := range f.st {
		until := f.st[i].ejectedUntil
		if now >= until {
			return i
		}
		if until < bestUntil {
			best, bestUntil = i, until
		}
	}
	return best
}

// Report records the outcome of one exchange against upstream i. A
// failure that reaches DefaultEjectAfter consecutive failures ejects the
// upstream; an upstream on probation (readmitted from a cooldown with
// no success since) re-ejects on a single failure.
func (f *Failover) Report(i int, ok bool) {
	f.lock.Lock()
	defer f.lock.Unlock()
	u := &f.st[i]
	if ok {
		u.consecutive = 0
		u.ejections = 0
		u.ejectedUntil = 0
		return
	}
	u.consecutive++
	if u.ejections == 0 && u.consecutive < DefaultEjectAfter {
		return
	}
	u.consecutive = 0
	cooldown := DefaultCooldownBase << u.ejections
	if cooldown > DefaultCooldownMax || cooldown <= 0 {
		cooldown = DefaultCooldownMax
	}
	if u.ejections < 62 { // keep the shift defined
		u.ejections++
	}
	spread := 1 + jitterFrac*(2*f.rt.Rand().Float64()-1)
	cooldown = time.Duration(float64(cooldown) * spread)
	u.ejectedUntil = f.rt.Now() + cooldown
}

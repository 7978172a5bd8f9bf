package netem

import (
	"fmt"
	"time"
)

// AccessProfile describes an access network attached to a host: a
// bandwidth pair (shared bottleneck per direction), last-mile latency,
// and a loss model. Attach one with Network.SetAccessLink; named
// profiles for common access technologies come from Profiles /
// ProfileByName.
type AccessProfile struct {
	Name string
	// Down and Up are the link rates in bytes/second toward and from
	// the host; 0 leaves that direction unshaped.
	Down, Up float64
	// ExtraDelay is the one-way last-mile latency added per direction.
	ExtraDelay time.Duration
	// Loss is the independent per-datagram drop probability.
	Loss float64
	// Burst adds Gilbert–Elliott burst loss (fades, handovers). Burst
	// state is kept per direction.
	Burst BurstLoss
	// QueueBytes bounds each direction's queue (0 = DefaultQueueBytes).
	QueueBytes int
}

// The named access-network profiles of the E19–E21 grids, ordered from
// best to worst. Rates are bytes/second.
var accessProfiles = []AccessProfile{
	{
		// A datacenter/fibre uplink — the paper's EC2 vantage points.
		// Serialization is negligible; the profile exists so that every
		// vantage always has a real link for the browser to consume.
		Name: "fiber", Down: 125e6, Up: 125e6, ExtraDelay: 200 * time.Microsecond,
	},
	{
		// DOCSIS cable: 200/20 Mbit/s, a few ms of last-mile latency.
		Name: "cable", Down: 25e6, Up: 2.5e6, ExtraDelay: 3 * time.Millisecond,
	},
	{
		// LTE: 50/12 Mbit/s, radio-scheduler latency, light random loss.
		Name: "4g", Down: 6.25e6, Up: 1.5e6, ExtraDelay: 25 * time.Millisecond,
		Loss: 0.002,
	},
	{
		// HSPA-era 3G: 2 Mbit/s down, 512 kbit/s up, high latency, loss.
		Name: "3g", Down: 250e3, Up: 64e3, ExtraDelay: 60 * time.Millisecond,
		Loss: 0.005,
	},
	{
		// GEO satellite: decent rate, ~560ms RTT from orbit alone, and
		// rain-fade bursts (mean fade ≈ 10 datagrams at 30% loss).
		Name: "satellite", Down: 12.5e6, Up: 625e3, ExtraDelay: 280 * time.Millisecond,
		Loss:  0.003,
		Burst: BurstLoss{PGoodBad: 0.002, PBadGood: 0.1, LossBad: 0.3},
	},
}

// extraProfiles are named profiles resolvable by ProfileByName but kept
// out of the ProfileNames grid set: the E19/E21 grids iterate
// that set, and its membership is part of their report shape. "wifi" is
// the migration scenario's starting link (E26): a home WLAN a notch
// below fiber, with the light loss of a shared radio.
var extraProfiles = []AccessProfile{
	{
		Name: "wifi", Down: 12.5e6, Up: 5e6, ExtraDelay: 2 * time.Millisecond,
		Loss: 0.001,
	},
}

// ProfileNames returns the names of the grid's access profiles, best to
// worst.
func ProfileNames() []string {
	names := make([]string, len(accessProfiles))
	for i, p := range accessProfiles {
		names[i] = p.Name
	}
	return names
}

// ProfileByName looks a named profile up, including the extra profiles
// outside the grid set.
func ProfileByName(name string) (AccessProfile, error) {
	for _, p := range accessProfiles {
		if p.Name == name {
			return p, nil
		}
	}
	for _, p := range extraProfiles {
		if p.Name == name {
			return p, nil
		}
	}
	return AccessProfile{}, fmt.Errorf("netem: unknown access profile %q (have %v)", name, ProfileNames())
}

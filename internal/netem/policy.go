package netem

import (
	"net/netip"
	"time"
)

// Policy describes middlebox interference on a directional path: port
// blocking, UDP blackholing, MTU clamping, and active rejection (an
// ICMP-style unreachable for UDP, an injected RST for TCP). The zero
// Policy does nothing; install one with SetPolicy.
//
// A policy is evaluated at send time, before the path's own loss and
// queue models: a middlebox sits on the path, so a datagram it eats
// never contends for the bottleneck. Silent drops are counted in
// Drops.Blocked; active rejections in Drops.Rejected (and the sender
// receives a Reject-marked notification datagram after a full path
// round trip, modelling the middlebox answering from the far network
// edge); clamp drops in Drops.Clamped.
type Policy struct {
	// BlockUDPPorts and BlockTCPPorts drop datagrams to these
	// destination ports.
	BlockUDPPorts []uint16
	BlockTCPPorts []uint16
	// BlockAllUDP blackholes every UDP datagram on the path regardless
	// of port (the "UDP is firewalled" enterprise middlebox).
	BlockAllUDP bool
	// Reject turns blocked-UDP drops from silent blackholes into
	// immediate ICMP-style rejections: the sender's socket receives a
	// Reject-marked datagram and can fail fast instead of timing out.
	Reject bool
	// RSTInject turns blocked-TCP drops into injected RSTs: the sender
	// receives a Reject-marked datagram, which the TCP transport
	// surfaces as a connection reset.
	RSTInject bool
	// ClampMTU silently drops datagrams whose payload exceeds this many
	// bytes (a path-MTU blackhole: no fragmentation, no ICMP). Zero
	// disables the clamp.
	ClampMTU int
}

// Active reports whether the policy interferes with anything.
func (p Policy) Active() bool {
	return len(p.BlockUDPPorts) > 0 || len(p.BlockTCPPorts) > 0 ||
		p.BlockAllUDP || p.ClampMTU > 0
}

// match reports whether the policy blocks the datagram, and if so
// whether the sender is actively notified (reject/RST) rather than
// silently blackholed.
func (p Policy) match(d Datagram) (drop, notify bool) {
	switch d.Proto {
	case ProtoUDP:
		if p.BlockAllUDP || portIn(d.Dst.Port(), p.BlockUDPPorts) {
			return true, p.Reject
		}
	case ProtoTCP:
		if portIn(d.Dst.Port(), p.BlockTCPPorts) {
			return true, p.RSTInject
		}
	}
	return false, false
}

func portIn(port uint16, ports []uint16) bool {
	for _, p := range ports {
		if p == port {
			return true
		}
	}
	return false
}

// SetPolicy installs a static middlebox policy on the directional path
// from src to dst. A zero Policy removes it.
func (n *Network) SetPolicy(src, dst netip.Addr, p Policy) {
	key := pathKey{src, dst}
	if !p.Active() {
		delete(n.policies, key)
		return
	}
	n.policies[key] = p
}

// policyDrop applies the policy installed on key to d. It reports
// whether the datagram was consumed by the middlebox; the caller stops
// processing on true. Callers guard with havePolicies, so the campaigns
// that install no policies never reach the map lookup.
func (n *Network) policyDrop(key pathKey, d Datagram, delay time.Duration) bool {
	pol := n.policies[key]
	if !pol.Active() {
		return false
	}
	if drop, notify := pol.match(d); drop {
		if notify {
			n.Drops.Rejected++
			n.pool.Put(d.Payload)
			// The rejection travels back from the far network edge: one
			// full path round trip, no loss or queueing (determinism:
			// no extra rng draws).
			fl := n.getInflight()
			fl.d = Datagram{Proto: d.Proto, Src: d.Dst, Dst: d.Src, Reject: true}
			fl.loopback = true
			n.World.AfterCall(2*delay, n.deliverFn, fl)
		} else {
			n.Drops.Blocked++
			n.pool.Put(d.Payload)
		}
		return true
	}
	if pol.ClampMTU > 0 && len(d.Payload) > pol.ClampMTU {
		n.Drops.Clamped++
		n.pool.Put(d.Payload)
		return true
	}
	return false
}

// havePolicies reports whether any middlebox policy is installed.
func (n *Network) havePolicies() bool {
	return len(n.policies) > 0
}

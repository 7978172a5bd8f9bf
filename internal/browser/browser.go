// Package browser is the page-load engine of the web performance
// methodology: the Chromium stand-in that resolves names through the
// local DNS proxy and loads the modeled pages, reporting First
// Contentful Paint and Page Load Time.
//
// DNS resolution uses the real protocol stack (UDP to the proxy, which
// forwards over the configured DoX upstream), including Chromium's
// application-layer retransmission with its 5-second initial timeout —
// the mechanism the paper identifies behind DoUDP's outlier tail.
// Content fetches are analytic (connection setup + per-resource round
// trip + serialization): the paper treats web content delivery as a
// confound, not a subject, and holds it constant across DNS protocols.
// Serialization, however, runs through the vantage host's real netem
// access link (netem.Network.OccupyDown): content downloads reserve the
// same shared downlink bottleneck the DNS datagrams traverse, so on a
// slow access network (E21's 3G cell) parallel fetches contend and the
// access profile's last-mile latency stretches every content round
// trip. Hosts without an access link keep the historical analytic
// 50 Mbit/s assumption.
package browser

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/dnsmsg"
	"repro/internal/netapi"
	"repro/internal/pages"
)

// Chromium's stub retransmission behaviour (resolv.conf defaults).
const (
	stubTimeout = 5 * time.Second
	stubRetries = 2
)

// Engine loads pages from one vantage backend through a local DNS
// proxy. Content-fetch timing comes from the backend's access-link
// model; there is no analytic bandwidth knob.
type Engine struct {
	Backend netapi.Backend
	Proxy   netip.AddrPort
}

// Result is one page load's outcome.
type Result struct {
	FCP        time.Duration
	PLT        time.Duration
	DNSQueries int
	DNSTime    time.Duration // cumulative stub-observed resolution time
	Err        error
}

// accessDelay is the one-way last-mile latency of the backend's access
// link, paid on every content round trip (DNS datagrams pay it inside
// the network model itself).
func (e *Engine) accessDelay() time.Duration {
	return e.Backend.AccessDelay()
}

// resolve performs one stub lookup through the proxy, with Chromium's
// application-layer retransmission.
func (e *Engine) resolve(name string, qid uint16) (netip.Addr, time.Duration, error) {
	rt := e.Backend
	sock, err := rt.DialUDP(8)
	if err != nil {
		return netip.Addr{}, 0, err
	}
	defer sock.Close()
	start := rt.Now()
	q := dnsmsg.NewQuery(qid, name, dnsmsg.TypeA)
	pool := sock.Pool()
	for attempt := 0; attempt <= stubRetries; attempt++ {
		// The network owns a sent buffer, so each attempt leases its own.
		sock.Send(e.Proxy, q.AppendEncode(pool.Get(512)))
		deadline := rt.Now() + stubTimeout
		for {
			d, ok := sock.RecvTimeout(deadline - rt.Now())
			if !ok {
				break // retransmit
			}
			resp, err := dnsmsg.Decode(d.Payload)
			pool.Put(d.Payload) // late and mismatched answers too
			if err != nil || resp.ID != qid {
				continue
			}
			addr, ok := resp.FirstA()
			if !ok {
				return netip.Addr{}, 0, fmt.Errorf("browser: no A record for %s", name)
			}
			return addr, rt.Now() - start, nil
		}
	}
	return netip.Addr{}, rt.Now() - start, fmt.Errorf("browser: resolution of %s timed out", name)
}

// fetch models retrieving size bytes over an established connection:
// one request round trip (origin RTT plus the access link's last-mile
// latency both ways), then serialization through the shared downlink.
// It sleeps through both phases, reserving the downlink (OccupyDown)
// only once the request round trip has elapsed — the moment response
// bytes can actually reach the link — so concurrent fetches and DNS
// datagrams queue behind real bytes, never behind a request still in
// flight.
func (e *Engine) fetch(originRTT time.Duration, size int) {
	e.Backend.Sleep(originRTT + 2*e.accessDelay())
	e.Backend.Sleep(e.Backend.OccupyDown(size))
}

// connSetup models TCP+TLS 1.3 connection establishment to the origin.
func (e *Engine) connSetup(originRTT time.Duration) time.Duration {
	return 2 * (originRTT + 2*e.accessDelay())
}

// Load performs one cold-start navigation and reports FCP and PLT.
//
// Timeline (mirroring how Chromium loads a page):
//  1. resolve the landing host (through the proxy), connect, fetch HTML;
//  2. discover sub-resources; resolve all third-party hosts in parallel,
//     connect per host, fetch that host's assets sequentially;
//  3. FCP fires when the HTML and all critical assets are in, plus render
//     time; PLT fires at onLoad, after every asset and the load handlers.
func (e *Engine) Load(p *pages.Page) Result {
	rt := e.Backend
	start := rt.Now()
	res := Result{}

	addr, dnsTime, err := e.resolve(p.URL, 1)
	if err != nil {
		res.Err = err
		return res
	}
	_ = addr
	res.DNSQueries++
	res.DNSTime += dnsTime

	// Connect to the landing origin and fetch the HTML.
	rt.Sleep(e.connSetup(p.OriginRTT))
	e.fetch(p.OriginRTT, p.HTMLSize)
	htmlDone := rt.Now()

	// Group sub-resources by host, preserving page order.
	var order []string
	byHost := map[string]*hostWork{}
	for _, r := range p.Resources {
		hw, ok := byHost[r.Host]
		if !ok {
			hw = &hostWork{host: r.Host}
			byHost[r.Host] = hw
			order = append(order, r.Host)
		}
		hw.resources = append(hw.resources, r)
	}

	// Per-host fetch tasks spawn through a pre-bound adapter sharing one
	// loadState instead of per-host closures over the local variables.
	ls := &loadState{
		e:            e,
		p:            p,
		res:          &res,
		wg:           rt.NewGroup(),
		criticalDone: htmlDone,
		allDone:      htmlDone,
	}
	for i, host := range order {
		ls.wg.Add(1)
		rt.GoCall(loadHostJob, &hostJob{ls: ls, hw: byHost[host], qid: uint16(i + 2)})
	}
	ls.wg.Wait()
	if ls.firstErr != nil {
		res.Err = ls.firstErr
		return res
	}

	res.FCP = ls.criticalDone + p.RenderDelay - start
	res.PLT = ls.allDone + p.OnLoadDelay - start
	if res.FCP > res.PLT {
		res.FCP = res.PLT
	}
	return res
}

// hostWork is one host's ordered slice of sub-resources.
type hostWork struct {
	host      string
	resources []pages.Resource
}

// loadState is the shared state of one Load's parallel per-host fetch
// tasks. The sim world runs one task at a time, so the fields need no
// locking.
type loadState struct {
	e            *Engine
	p            *pages.Page
	res          *Result
	wg           netapi.Group
	firstErr     error
	criticalDone time.Duration
	allDone      time.Duration
}

type hostJob struct {
	ls  *loadState
	hw  *hostWork
	qid uint16
}

// loadHostJob resolves (if third-party) and fetches one host's assets;
// it is the pre-bound adapter shared by all per-host tasks.
func loadHostJob(v any) {
	j := v.(*hostJob)
	ls, hw := j.ls, j.hw
	defer ls.wg.Done()
	rt := ls.e.Backend
	// The landing host is already resolved and connected; third
	// parties need DNS + connection setup.
	if hw.host != ls.p.URL {
		_, dt, err := ls.e.resolve(hw.host, j.qid)
		if err != nil {
			if ls.firstErr == nil {
				ls.firstErr = err
			}
			return
		}
		ls.res.DNSQueries++
		ls.res.DNSTime += dt
		rt.Sleep(ls.e.connSetup(ls.p.OriginRTT))
	}
	for _, r := range hw.resources {
		ls.e.fetch(ls.p.OriginRTT, r.Size)
		if r.Critical && rt.Now() > ls.criticalDone {
			ls.criticalDone = rt.Now()
		}
	}
	if rt.Now() > ls.allDone {
		ls.allDone = rt.Now()
	}
}

package dox

import (
	"fmt"
	"net/netip"
	"strconv"

	"repro/internal/dnsmsg"
	"repro/internal/h2"
	"repro/internal/h3"
	"repro/internal/netapi"
	"repro/internal/quic"
	"repro/internal/tlsmini"
)

// Handler answers one DNS query. Returning nil drops the query (models a
// resolver not responding, the source of the paper's sample-size
// variation). Handlers run in their own sim task and may sleep to model
// processing or recursive-lookup latency.
type Handler func(q *dnsmsg.Message, proto Protocol, from netip.AddrPort) *dnsmsg.Message

// ServerConfig configures a resolver-side transport endpoint set. Clock
// and randomness come from the backend the server is built on.
type ServerConfig struct {
	Handler  Handler
	Identity *tlsmini.Identity

	TicketStore     *tlsmini.TicketStore
	AcceptEarlyData bool
	TLSVersion      tlsmini.Version // max version; VersionTLS12 forces the legacy flow

	QUICVersions []uint32
	DoQALPN      string // the single DoQ version this resolver deploys
	TokenKey     []byte

	// DoQPort defaults to PortDoQ; early-draft deployments use 784 or
	// 8853. The other transports listen on their standard ports.
	DoQPort uint16
}

// quicListener is the capability a backend provides when it can accept
// QUIC; see quicDialer.
type quicListener interface {
	ListenQUIC(port uint16, cfg quic.Config) (*quic.Listener, error)
}

// Server runs the requested transports on one backend.
type Server struct {
	be  netapi.Backend
	cfg ServerConfig

	// endpoints are the started sockets and listeners, closed in start
	// order. They append into endpointArr, so starting all six
	// transports allocates no slice.
	endpoints   []interface{ Close() }
	endpointArr [6]interface{ Close() }

	// Per-query task spawners of the transports that answer each query
	// in a task of its own, built when that transport starts serving.
	udp *netapi.Spawner[udpQuery]
	tcp *netapi.Spawner[netapi.StreamConn]
	dot *netapi.Spawner[dotQuery]
	doq *netapi.Spawner[doqStream]
}

// udpQuery is one DoUDP query handed from the receive handler to its
// task.
type udpQuery struct {
	sock netapi.PacketConn
	p    netapi.Packet
}

// serveUDP answers one DoUDP query. The datagram buffer returns to the
// pool right after decoding (Decode copies everything it keeps).
//
//simlint:hotpath
func (s *Server) serveUDP(u udpQuery) {
	sock, p := u.sock, u.p
	q, err := dnsmsg.Decode(p.Payload)
	sock.Pool().Put(p.Payload)
	if err != nil {
		return
	}
	if resp := s.cfg.Handler(q, DoUDP, p.Src); resp != nil {
		// Encode straight into a pooled buffer; Send transfers its
		// ownership to the network.
		sock.Send(p.Src, resp.AppendEncode(sock.Pool().Get(512)))
	}
}

// serveTCP answers one accepted DoTCP connection (one query each: no
// public resolver supports edns-tcp-keepalive, paper §3).
func (s *Server) serveTCP(conn netapi.StreamConn) {
	r := prefixReader{s: conn}
	if q, err := r.message(); err == nil {
		if resp := s.cfg.Handler(q, DoTCP, conn.RemoteAddr()); resp != nil {
			conn.Write(appendPrefixed(resp))
		}
	}
	conn.Close()
}

// dotQuery is one length-delimited DoT query off a persistent
// connection's TLS stream.
type dotQuery struct {
	tls  *tlsmini.Conn
	from netip.AddrPort
	wire []byte
}

func (s *Server) serveDoT(d dotQuery) {
	q, err := dnsmsg.Decode(d.wire)
	if err != nil {
		return
	}
	if resp := s.cfg.Handler(q, DoT, d.from); resp != nil {
		d.tls.Write(appendPrefixed(resp))
	}
}

// doqStream is one accepted DoQ stream (= one query, RFC 9250).
type doqStream struct {
	conn     *quic.Conn
	st       *quic.Stream
	prefixed bool
}

func (s *Server) serveDoQ(d doqStream) {
	data, ok := d.st.ReadAll()
	if !ok {
		return
	}
	q, err := doqDecode(data, d.prefixed)
	if err != nil {
		return
	}
	if resp := s.cfg.Handler(q, DoQ, d.conn.RemoteAddr()); resp != nil {
		d.st.Write(doqEncode(resp, d.prefixed), true)
	}
}

// NewServer creates a server; call the Serve* methods to enable
// transports.
func NewServer(be netapi.Backend, cfg ServerConfig) *Server {
	setDefault(&cfg.DoQPort, PortDoQ)
	setDefault(&cfg.DoQALPN, DoQALPNRFC)
	s := &Server{be: be, cfg: cfg}
	s.endpoints = s.endpointArr[:0]
	return s
}

// ServeUDP starts the DoUDP endpoint.
func (s *Server) ServeUDP() error {
	sock, err := s.be.ListenUDP(PortDoUDP, 8)
	if err != nil {
		return err
	}
	s.endpoints = append(s.endpoints, sock)
	s.udp = netapi.NewSpawner(s.be, s.serveUDP)
	sock.Handle(func(p netapi.Packet) { s.udp.Go(udpQuery{sock, p}) }, nil)
	return nil
}

// ServeTCP starts the DoTCP endpoint. Connections close after one
// exchange: no public resolver supports edns-tcp-keepalive (paper §3).
func (s *Server) ServeTCP() error { return s.listenStream(DoTCP, PortDoTCP) }

// ServeDoT starts the DoT endpoint. Connections persist across queries.
func (s *Server) ServeDoT() error { return s.listenStream(DoT, PortDoT) }

// ServeDoH starts the DoH endpoint (HTTP/2 over TLS).
func (s *Server) ServeDoH() error { return s.listenStream(DoH, PortDoH) }

// listenStream starts the stream endpoint of proto (DoTCP, DoT or DoH).
func (s *Server) listenStream(proto Protocol, port uint16) error {
	l, err := s.be.ListenStream(port)
	if err != nil {
		return err
	}
	s.endpoints = append(s.endpoints, l)
	switch proto {
	case DoTCP:
		s.tcp = netapi.NewSpawner(s.be, s.serveTCP)
	case DoT:
		s.dot = netapi.NewSpawner(s.be, s.serveDoT)
	}
	s.be.Go(func() {
		for {
			conn, ok := l.Accept()
			if !ok {
				return
			}
			if proto == DoTCP {
				s.tcp.Go(conn)
			} else {
				s.be.Go(func() { s.serveTLS(proto, conn) })
			}
		}
	})
	return nil
}

// serveTLS runs one DoT or DoH connection: the server side of the TLS
// handshake, then the transport's framing until the peer disconnects.
func (s *Server) serveTLS(proto Protocol, conn netapi.StreamConn) {
	alpn := "dot"
	if proto == DoH {
		alpn = "h2"
	}
	tls := tlsmini.NewConn(conn, tlsmini.Config{
		ALPN:            []string{alpn},
		Identity:        s.cfg.Identity,
		Version:         s.cfg.TLSVersion,
		TicketStore:     s.cfg.TicketStore,
		AcceptEarlyData: s.cfg.AcceptEarlyData,
		Rand:            s.be.Rand(),
		Now:             s.be.Now,
	})
	if err := tls.Handshake(); err != nil {
		conn.Close()
		return
	}
	remote := conn.RemoteAddr()
	if proto == DoH {
		h2.ServeConn(s.be, tls, func(_ []h2.Header, body []byte) ([]h2.Header, []byte) {
			return answerHTTP[h2.Header](s, DoH, remote, body)
		})
		return
	}
	// DoT: each length-prefixed query is answered in its own task.
	r := prefixReader{s: tls}
	for {
		msg, err := r.next()
		if err != nil {
			conn.Close()
			return
		}
		s.dot.Go(dotQuery{tls, remote, append([]byte(nil), msg...)})
	}
}

// answerHTTP serves one DoH or DoH3 request body: 400 for an undecodable
// query, 503 when the handler drops it, otherwise the answer with an HTTP
// cache lifetime derived from its remaining TTL, so the HTTP transports'
// cache metadata tracks the resolver's shared answer cache (answerless
// responses keep the historical 60s).
func answerHTTP[H header](s *Server, proto Protocol, from netip.AddrPort, body []byte) ([]H, []byte) {
	q, err := dnsmsg.Decode(body)
	if err != nil {
		return []H{{Name: ":status", Value: "400"}}, nil
	}
	resp := s.cfg.Handler(q, proto, from)
	if resp == nil {
		return []H{{Name: ":status", Value: "503"}}, nil
	}
	ttl := uint32(60)
	if len(resp.Answers) > 0 {
		ttl = resp.Answers[0].TTL
	}
	return []H{
		{Name: ":status", Value: "200"},
		{Name: "content-type", Value: "application/dns-message"},
		{Name: "cache-control", Value: "max-age=" + strconv.FormatUint(uint64(ttl), 10)},
	}, resp.Encode()
}

// ServeDoQ starts the DoQ endpoint.
func (s *Server) ServeDoQ() error { return s.listenQUIC(DoQ, s.cfg.DoQPort, s.cfg.DoQALPN) }

// ServeDoH3 starts the DoH3 endpoint: HTTP/3 over QUIC with the "h3"
// ALPN, sharing the resolver's ticket store and token key with DoQ so a
// session warmed on either QUIC transport resumes with the same
// machinery.
func (s *Server) ServeDoH3() error { return s.listenQUIC(DoH3, PortDoH3, DoH3ALPN) }

// listenQUIC starts the QUIC endpoint of proto (DoQ or DoH3).
func (s *Server) listenQUIC(proto Protocol, port uint16, alpn string) error {
	ql, ok := s.be.(quicListener)
	if !ok {
		return fmt.Errorf("dox: %v requires a QUIC-capable backend (sim only)", proto)
	}
	l, err := ql.ListenQUIC(port, quic.Config{
		ALPN:            []string{alpn},
		Identity:        s.cfg.Identity,
		TicketStore:     s.cfg.TicketStore,
		AcceptEarlyData: s.cfg.AcceptEarlyData,
		Versions:        s.cfg.QUICVersions,
		TokenKey:        s.cfg.TokenKey,
		Rand:            s.be.Rand(),
		Now:             s.be.Now,
	})
	if err != nil {
		return err
	}
	s.endpoints = append(s.endpoints, l)
	if proto == DoQ {
		s.doq = netapi.NewSpawner(s.be, s.serveDoQ)
	}
	s.be.Go(func() {
		for {
			conn, ok := l.Accept()
			if !ok {
				return
			}
			s.be.Go(func() { s.serveQUIC(proto, conn) })
		}
	})
	return nil
}

// serveQUIC runs one DoQ or DoH3 connection until the peer disconnects.
func (s *Server) serveQUIC(proto Protocol, conn *quic.Conn) {
	if proto == DoH3 {
		remote := conn.RemoteAddr()
		h3.ServeConn(s.be, conn, func(_ []h3.Header, body []byte) ([]h3.Header, []byte) {
			return answerHTTP[h3.Header](s, DoH3, remote, body)
		})
		return
	}
	// DoQ: each stream carries one query (RFC 9250), answered in its own
	// task.
	prefixed := alpnUsesLengthPrefix(s.cfg.DoQALPN)
	for {
		st, ok := conn.AcceptStream()
		if !ok {
			return
		}
		s.doq.Go(doqStream{conn, st, prefixed})
	}
}

// ServeAll enables every transport, returning the first error.
func (s *Server) ServeAll() error {
	for _, fn := range []func() error{s.ServeUDP, s.ServeTCP, s.ServeDoT, s.ServeDoH, s.ServeDoQ, s.ServeDoH3} {
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// Close stops all endpoints.
func (s *Server) Close() {
	for _, e := range s.endpoints {
		e.Close()
	}
}

package main

import (
	"net/netip"
	"testing"
)

func TestParseServer(t *testing.T) {
	accepted := []struct {
		in   string
		addr string
		port uint16
	}{
		{"9.9.9.9", "9.9.9.9", 53},
		{"127.0.0.1:5353", "127.0.0.1", 5353},
		{"[::1]:853", "::1", 853},
		{"::1", "::1", 53},
	}
	for _, c := range accepted {
		addr, port, err := parseServer(c.in)
		if err != nil {
			t.Errorf("parseServer(%q): %v", c.in, err)
			continue
		}
		if addr != netip.MustParseAddr(c.addr) || port != c.port {
			t.Errorf("parseServer(%q) = %v, %d; want %s, %d", c.in, addr, port, c.addr, c.port)
		}
	}
	for _, in := range []string{"dns.quad9.net", "1.2.3.4:99999", "[::1]", ""} {
		if addr, port, err := parseServer(in); err == nil {
			t.Errorf("parseServer(%q) = %v, %d; want an error", in, addr, port)
		}
	}
}

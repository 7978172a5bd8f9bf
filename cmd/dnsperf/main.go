// Command dnsperf measures a real resolver with the paper's DNSPerf
// pattern: a cache-warming query, then a measured query on a fresh
// session, per transport, over the operating system's sockets (the
// netapi/livenet backend). The simulated campaigns live in
// cmd/experiments.
//
// Usage:
//
//	dnsperf -server <ip[:port]> [-server-name NAME]
//	        [-protocols do53,tcp,dot,doh] [-domain NAME]
//	        [-dot-port N] [-doh-port N] [-insecure] [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	server := flag.String("server", "", "target resolver, ip or ip:port (required)")
	serverName := flag.String("server-name", "", "TLS server name (default: the server address)")
	protocols := flag.String("protocols", "do53,tcp,dot", "transports to measure (do53,tcp,dot,doh)")
	domain := flag.String("domain", "example.com", "query name")
	dotPort := flag.Uint("dot-port", 853, "DoT port")
	dohPort := flag.Uint("doh-port", 443, "DoH port")
	insecure := flag.Bool("insecure", false, "skip TLS certificate verification")
	seed := flag.Int64("seed", 2022, "seed of the query-ID stream")
	flag.Parse()

	if *server == "" {
		fmt.Fprintln(os.Stderr, "dnsperf: -server is required")
		os.Exit(2)
	}
	os.Exit(runLive(*server, *serverName, *protocols, *domain,
		uint16(*dotPort), uint16(*dohPort), *insecure, *seed))
}

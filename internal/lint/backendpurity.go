package lint

import (
	"strconv"

	"repro/internal/lint/analysis"
)

// portablePkgNames are the packages that must run unchanged on either
// backend, so they may not import the simulation kernel or the network
// emulator:
//
//   - browser, dnsproxy, dox, dox/racing, h2 and h3 are written against
//     the netapi seam and reach scheduling and sockets only through
//     netapi.Backend;
//   - dnsmsg and tlsmini are pure codecs the seam's consumers share,
//     and tlsmini is in livenet's import graph, so a kernel import there
//     would reach the live backend.
//
// quic and tcpsim are absent: they are the simulation transport, built
// on netem.Socket, and only netapi/simnet reaches them.
var portablePkgNames = map[string]bool{
	"browser":  true,
	"dnsmsg":   true,
	"dnsproxy": true,
	"dox":      true,
	"h2":       true,
	"h3":       true,
	"racing":   true,
	"tlsmini":  true,
}

// BackendPurity enforces the backend seam at the import graph.
var BackendPurity = &analysis.Analyzer{
	Name: "backendpurity",
	Doc: `forbid simulation-stack imports across the netapi seam

Two import rules keep the backend seam honest:

  - netapi/livenet must not import internal/sim or internal/netem: the
    live backend exists so real sockets can replace the simulation, and
    a kernel import would drag virtual time into live measurements.
  - the backend-portable packages must not import internal/sim or
    internal/netem either: the seam's consumers (browser, dnsproxy,
    dox, dox/racing, h2, h3), which get everything they need from a
    runtime via netapi.Backend, and the codecs they share (dnsmsg,
    tlsmini). netapi/simnet is the one sanctioned adapter between the
    seam and the kernel; quic and tcpsim are the simulation transport
    behind it.

Violations are hard errors: the seam held at zero when it was
introduced and must stay there.`,
	Run: runBackendPurity,
}

// isLivenetPkg reports whether path is the live backend package.
func isLivenetPkg(path string) bool {
	segs := pathSegments(path)
	return isInternalPkg(path) && segs[len(segs)-1] == "livenet"
}

// isNetemPkgPath reports whether path is the network emulator package.
func isNetemPkgPath(path string) bool {
	segs := pathSegments(path)
	return isInternalPkg(path) && segs[len(segs)-1] == "netem"
}

// isPortablePkg reports whether path must run on either backend.
func isPortablePkg(path string) bool {
	segs := pathSegments(path)
	return isInternalPkg(path) && portablePkgNames[segs[len(segs)-1]]
}

func runBackendPurity(pass *analysis.Pass) error {
	pkgPath := pass.Pkg.Path()
	var role string
	switch {
	case isLivenetPkg(pkgPath):
		role = "the live backend"
	case isPortablePkg(pkgPath):
		role = "backend-portable"
	default:
		return nil
	}
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			target, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			switch {
			case isSimPkgPath(target):
				pass.Reportf(imp.Pos(), "%s is %s and must not import the simulation kernel %s; use netapi.Backend", pass.Pkg.Name(), role, target)
			case isNetemPkgPath(target):
				pass.Reportf(imp.Pos(), "%s is %s and must not import the network emulator %s; use netapi.Backend", pass.Pkg.Name(), role, target)
			}
		}
	}
	return nil
}

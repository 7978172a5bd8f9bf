// Package lint is the simlint analyzer suite: seven static checkers
// that machine-enforce the invariants this repository otherwise
// guarantees only by convention and after-the-fact runtime tests.
//
//	nowallclock  virtual time only in internal/... (no time.Now etc.;
//	             netapi/livenet is exempt — the wall clock is its job)
//	seededrand   randomness flows through seeded *rand.Rand, never the
//	             global math/rand source or crypto/rand
//	maporder     no order-dependent effects inside map iteration
//	poolown      bytepool lease discipline: no leaks, double-Put, or
//	             use-after-Put
//	hotalloc     no closures, fmt, or interface boxing in functions
//	             marked //simlint:hotpath
//	backendpurity  neither netapi/livenet nor the backend-portable
//	             packages (the seam's consumers plus the dnsmsg and
//	             tlsmini codecs) import sim or netem
//	deadapi      no declaration under internal/ that only its own
//	             package's tests reference, and no *Config/*Options
//	             field that nothing writes (whole-program: simlint runs
//	             it on ./... only, with bench/ loaded)
//
// Intentional exceptions are recorded in the source as
// //simlint:allow <rule> <reason>; the reason is mandatory. See
// DESIGN.md §9 for the rule catalog.
package lint

import (
	"go/token"
	"sort"

	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
)

// Rules is every rule, in catalog order: the six per-package analyzers,
// which Run applies, then the whole-program DeadAPI, which RunDeadAPI
// applies.
var Rules = []*analysis.Analyzer{
	BackendPurity,
	HotAlloc,
	MapOrder,
	NoWallClock,
	PoolOwn,
	SeededRand,
	DeadAPI,
}

// ruleNames holds every valid rule name for pragma validation.
var ruleNames = func() map[string]bool {
	m := map[string]bool{}
	for _, a := range Rules {
		m[a.Name] = true
	}
	return m
}()

// Finding is one diagnostic after pragma filtering.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

// Run applies analyzers to every package and returns the surviving
// findings sorted by position. //simlint:allow pragmas are applied here,
// and malformed pragmas are reported as rule "pragma", so the driver and
// the analysistest harness exercise identical suppression behavior.
func Run(pkgs []*loader.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	var out []Finding
	for _, pkg := range pkgs {
		pragmas := scanPragmas(pkg.Fset, pkg.Files, ruleNames, func(pos token.Pos, msg string) {
			out = append(out, Finding{
				Pos: pkg.Fset.Position(pos), Rule: "pragma", Message: msg,
			})
		})
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			pass.Report = func(d analysis.Diagnostic) {
				if pragmas.allowed(d.Pos, a.Name) {
					return
				}
				out = append(out, Finding{
					Pos: pkg.Fset.Position(d.Pos), Rule: a.Name, Message: d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, err
			}
		}
	}
	sortFindings(out)
	return out, nil
}

// sortFindings orders findings by position, then rule.
func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// Package analysistest runs simlint analyzers over fixture packages and
// checks their diagnostics against // want comments, mirroring
// golang.org/x/tools/go/analysis/analysistest on the local framework.
//
// Fixtures live in a GOPATH-style tree: <testdata>/src/<importpath>/*.go.
// A line expecting diagnostics carries a trailing comment of the form
//
//	code() // want "regexp" "second regexp"
//
// with each quoted (or backquoted) regexp matching exactly one
// diagnostic reported on that line, in any order. Lines without a want
// comment must produce no diagnostics. Because fixtures load through
// lint.Run, //simlint:allow pragmas are honored, so suppression behavior
// is testable: an allowed line simply carries no want comment.
package analysistest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
)

// Run loads each fixture package from testdata/src and checks analyzer
// diagnostics (plus any pragma findings) against its want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	pkgs, err := loader.LoadTree(filepath.Join(testdata, "src"), pkgPaths...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	findings, err := lint.Run(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	check(t, pkgs, findings)
}

// RunDeadAPI loads the fixture packages as one whole program, with the
// _test.go files beside them, and checks the deadapi rule's findings
// against their want comments.
func RunDeadAPI(t *testing.T, testdata string, pkgPaths ...string) {
	t.Helper()
	pkgs, err := loader.LoadTree(filepath.Join(testdata, "src"), pkgPaths...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	findings, err := lint.RunDeadAPI(pkgs)
	if err != nil {
		t.Fatalf("running deadapi: %v", err)
	}
	check(t, pkgs, findings)
}

// check matches findings one to one against the want comments in pkgs.
func check(t *testing.T, pkgs []*loader.Package, findings []lint.Finding) {
	t.Helper()
	wants := collectWants(t, pkgs)
	// Match findings to wants per (file, line).
	for _, f := range findings {
		key := posKey{filepath.ToSlash(f.Pos.Filename), f.Pos.Line}
		ws := wants[key]
		matched := false
		for i, w := range ws {
			if w != nil && w.re.MatchString(f.Message) {
				ws[i] = nil
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s (%s)", f.Pos.Filename, f.Pos.Line, f.Message, f.Rule)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if w != nil {
				t.Errorf("%s:%d: no diagnostic matching %q", key.file, key.line, w.pattern)
			}
		}
	}
}

type posKey struct {
	file string
	line int
}

type want struct {
	pattern string
	re      *regexp.Regexp
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)`)

// collectWants parses // want comments from every fixture file.
func collectWants(t *testing.T, pkgs []*loader.Package) map[posKey][]*want {
	t.Helper()
	wants := make(map[posKey][]*want)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					key := posKey{filepath.ToSlash(pos.Filename), pos.Line}
					pats, err := parsePatterns(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want comment: %v", pos.Filename, pos.Line, err)
					}
					for _, p := range pats {
						re, err := regexp.Compile(p)
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, p, err)
						}
						wants[key] = append(wants[key], &want{pattern: p, re: re})
					}
				}
			}
		}
	}
	return wants
}

// parsePatterns reads a sequence of Go string literals ("..." or `...`).
func parsePatterns(s string) ([]string, error) {
	var pats []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' && s[0] != '`' {
			return nil, fmt.Errorf("expected string literal at %q", s)
		}
		quote := s[0]
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == quote && (quote == '`' || s[i-1] != '\\') {
				end = i
				break
			}
		}
		if end < 0 {
			return nil, fmt.Errorf("unterminated string in %q", s)
		}
		lit := s[:end+1]
		p, err := strconv.Unquote(lit)
		if err != nil {
			return nil, fmt.Errorf("unquoting %s: %v", lit, err)
		}
		pats = append(pats, p)
		s = strings.TrimSpace(s[end+1:])
	}
	return pats, nil
}

// Command simlint runs the repository's analyzer suite (internal/lint):
// seven checkers that machine-enforce the determinism, pool-ownership,
// hot-path, backend-purity and dead-API invariants. Two modes:
//
// Standalone multichecker (the `make lint` entry point):
//
//	go run ./cmd/simlint ./...
//	go run ./cmd/simlint -rules maporder,poolown ./internal/...
//	go run ./cmd/simlint -list                       # rule catalog
//
// Vet tool (per-package, driven by the go command):
//
//	go build -o bin/simlint ./cmd/simlint
//	go vet -vettool=$(pwd)/bin/simlint ./...
//
// The whole-program deadapi rule runs only in standalone mode on the
// default ./... pattern, where it also loads the bench/ module so that
// whatever the benchmark calls stays live; go vet runs every other rule.
//
// Exit status is nonzero when any finding survives //simlint:allow
// pragmas.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
)

func main() {
	// go vet probes its tool with -V=full, then invokes it with a
	// single *.cfg argument per package.
	if len(os.Args) == 2 && os.Args[1] == "-V=full" {
		fmt.Println("simlint version 1 (repro analyzer suite)")
		return
	}
	// go vet asks the tool which flags it supports; simlint takes none
	// in vet-tool mode.
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println("[]")
		return
	}
	if len(os.Args) == 2 && strings.HasSuffix(os.Args[1], ".cfg") {
		os.Exit(vettoolMain(os.Args[1]))
	}
	os.Exit(standaloneMain())
}

func standaloneMain() int {
	var (
		rulesFlag = flag.String("rules", "", "comma-separated rule subset to run (default: all)")
		listRules = flag.Bool("list", false, "print the rule catalog and exit")
	)
	flag.Parse()

	if *listRules {
		for _, a := range lint.Rules {
			fmt.Printf("%s: %s\n\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := selectRules(*rulesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}

	root, err := moduleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.LoadModule(root, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}
	var deadapi bool
	var perPkg []*analysis.Analyzer
	for _, a := range analyzers {
		if a == lint.DeadAPI {
			deadapi = true
		} else {
			perPkg = append(perPkg, a)
		}
	}
	findings, err := lint.Run(pkgs, perPkg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}
	if deadapi && len(patterns) == 1 && patterns[0] == "./..." {
		dead, err := runDeadAPI(root, pkgs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 2
		}
		findings = append(findings, dead...)
	} else if deadapi {
		fmt.Fprintln(os.Stderr, "simlint: deadapi is whole-program and runs only on ./...; skipped")
	}

	printFindings(findings, root)
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// runDeadAPI applies the whole-program rule to the root module's
// packages plus those of the bench/ module, when there is one.
func runDeadAPI(root string, pkgs []*loader.Package) ([]lint.Finding, error) {
	bench := filepath.Join(root, "bench")
	if _, err := os.Stat(filepath.Join(bench, "go.mod")); err == nil {
		benchPkgs, err := loader.LoadModule(bench, "./...")
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs[:len(pkgs):len(pkgs)], benchPkgs...)
	}
	return lint.RunDeadAPI(pkgs)
}

// printFindings emits one line per finding, with paths relative to root
// so output is stable across checkouts.
func printFindings(findings []lint.Finding, root string) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pos.Column < b.Pos.Column
	})
	for _, f := range findings {
		name := f.Pos.Filename
		if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s [%s]\n", name, f.Pos.Line, f.Pos.Column, f.Message, f.Rule)
	}
}

// selectRules resolves a comma-separated -rules value against the suite.
func selectRules(csv string) ([]*analysis.Analyzer, error) {
	if csv == "" {
		return lint.Rules, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range lint.Rules {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(csv, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q (have: %s)", name, ruleNames())
		}
		out = append(out, a)
	}
	return out, nil
}

func ruleNames() string {
	names := make([]string, len(lint.Rules))
	for i, a := range lint.Rules {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// moduleRoot walks up from dir to the directory containing go.mod.
func moduleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod above %s", abs)
		}
		d = parent
	}
}

package main

// The vet-tool mode speaks the go command's unit-checker protocol: for
// each package, `go vet -vettool=simlint` invokes the tool with a single
// JSON .cfg argument describing the compilation unit (file list, import
// map, and export-data locations), expects a facts file to be written to
// VetxOutput, and treats a nonzero exit as findings. simlint uses no
// cross-package facts, so the facts file is always empty; diagnostics go
// to stderr in the usual file:line:col form.

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/loader"
)

// vetConfig mirrors the fields of the go command's vet config file that
// simlint consumes.
type vetConfig struct {
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func vettoolMain(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "simlint: parsing %s: %v\n", cfgPath, err)
		return 2
	}

	// The go command requires the facts file even from fact-free tools.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	// simlint's contract covers non-test sources; test variants of a
	// package (ImportPath "p [p.test]" or "p.test") are skipped, as are
	// any _test.go files vet hands us.
	if strings.Contains(cfg.ImportPath, ".test") || strings.Contains(cfg.ImportPath, " [") {
		return 0
	}
	var goFiles []string
	for _, f := range cfg.GoFiles {
		if !strings.HasSuffix(f, "_test.go") {
			goFiles = append(goFiles, f)
		}
	}
	if len(goFiles) == 0 {
		return 0
	}

	// Export data for every import: map source-level paths through
	// ImportMap onto the package files the compiler produced.
	exports := make(map[string]string, len(cfg.PackageFile)+len(cfg.ImportMap))
	for path, file := range cfg.PackageFile {
		exports[path] = file
	}
	for path, canon := range cfg.ImportMap {
		if f, ok := cfg.PackageFile[canon]; ok {
			exports[path] = f
		}
	}

	pkg, err := loader.LoadFiles(cfg.ImportPath, cfg.Dir, goFiles, exports)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}

	findings, err := lint.Run([]*loader.Package{pkg}, lint.Analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}

	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s [%s]\n", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Rule)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}

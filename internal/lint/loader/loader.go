// Package loader parses and type-checks Go packages for the simlint
// analyzers without depending on golang.org/x/tools/go/packages (the
// repository builds offline). Two loading modes cover the two callers:
//
//   - LoadModule: the cmd/simlint driver loads real module packages.
//     Dependency types come from compiler export data located with
//     `go list -export -deps`, which works offline against the local
//     build cache, so each analyzed package is type-checked from source
//     with every import resolved exactly as the compiler sees it.
//
//   - LoadTree: the analysistest harness loads GOPATH-style fixture
//     trees (testdata/src/<importpath>/*.go). Fixture-local imports are
//     type-checked from source recursively; standard-library imports go
//     through the same export-data mechanism.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	Path  string // import path
	Dir   string // directory holding the source files
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Error      *struct{ Err string }
}

// goList runs `go list -export -deps -json` in dir over patterns and
// returns the decoded package stream.
func goList(dir string, patterns []string) ([]*listedPkg, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,Standard,DepOnly,GoFiles,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter returns a types.Importer that resolves import paths
// through compiler export data files, consulting local (source-loaded)
// packages first.
func exportImporter(fset *token.FileSet, exports map[string]string, local func(path string) (*types.Package, error)) types.Importer {
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	return importerFunc(func(path string) (*types.Package, error) {
		if local != nil {
			if pkg, err := local(path); pkg != nil || err != nil {
				return pkg, err
			}
		}
		return gc.Import(path)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// parseDir parses the non-test Go files listed in files (relative to
// dir), or every non-test .go file in dir when files is nil.
func parseDir(fset *token.FileSet, dir string, files []string) ([]*ast.File, error) {
	if files == nil {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			files = append(files, name)
		}
		sort.Strings(files)
	}
	var parsed []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
	}
	if len(parsed) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	return parsed, nil
}

func typeCheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := newInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return pkg, info, nil
}

// LoadModule loads the module packages matching patterns (e.g. "./...")
// rooted at dir. Only non-dependency, non-standard packages are returned
// for analysis; their imports (standard library and intra-module alike)
// are resolved from compiler export data, so loading cost is one
// `go list` plus a source type-check of just the analyzed packages.
func LoadModule(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports, nil)

	var out []*Package
	for _, p := range listed {
		if p.Standard || p.DepOnly {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		files, err := parseDir(fset, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		tpkg, info, err := typeCheck(fset, p.ImportPath, files, imp)
		if err != nil {
			return nil, err
		}
		out = append(out, &Package{
			Path: p.ImportPath, Dir: p.Dir,
			Fset: fset, Files: files, Types: tpkg, Info: info,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// tree loads a GOPATH-style fixture tree.
type tree struct {
	root    string // the src directory
	fset    *token.FileSet
	exports map[string]string
	pkgs    map[string]*Package
	loading map[string]bool
}

// LoadTree loads the fixture packages named by paths from a
// testdata/src-style root: the package with import path p lives in
// root/p. Imports that resolve to a directory under root are loaded from
// source (recursively); everything else must be standard library and is
// resolved via export data.
func LoadTree(root string, paths ...string) ([]*Package, error) {
	t := &tree{
		root:    root,
		fset:    token.NewFileSet(),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	if err := t.collectExports(paths); err != nil {
		return nil, err
	}
	var out []*Package
	for _, p := range paths {
		pkg, err := t.load(p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

func (t *tree) isLocal(path string) bool {
	st, err := os.Stat(filepath.Join(t.root, filepath.FromSlash(path)))
	return err == nil && st.IsDir()
}

// collectExports gathers the non-local imports reachable from the fixture
// packages and resolves their export data with one `go list` run.
func (t *tree) collectExports(roots []string) error {
	std := make(map[string]bool)
	seen := make(map[string]bool)
	var walk func(path string) error
	walk = func(path string) error {
		if seen[path] {
			return nil
		}
		seen[path] = true
		files, err := parseDir(token.NewFileSet(), filepath.Join(t.root, filepath.FromSlash(path)), nil)
		if err != nil {
			return err
		}
		for _, f := range files {
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if t.isLocal(p) {
					if err := walk(p); err != nil {
						return err
					}
				} else {
					std[p] = true
				}
			}
		}
		return nil
	}
	for _, p := range roots {
		if err := walk(p); err != nil {
			return err
		}
	}
	t.exports = make(map[string]string)
	if len(std) == 0 {
		return nil
	}
	var pats []string
	for p := range std {
		pats = append(pats, p)
	}
	sort.Strings(pats)
	listed, err := goList(t.root, pats)
	if err != nil {
		return err
	}
	for _, p := range listed {
		if p.Export != "" {
			t.exports[p.ImportPath] = p.Export
		}
	}
	return nil
}

func (t *tree) load(path string) (*Package, error) {
	if pkg, ok := t.pkgs[path]; ok {
		return pkg, nil
	}
	if t.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	t.loading[path] = true
	defer delete(t.loading, path)

	dir := filepath.Join(t.root, filepath.FromSlash(path))
	files, err := parseDir(t.fset, dir, nil)
	if err != nil {
		return nil, err
	}
	imp := exportImporter(t.fset, t.exports, func(p string) (*types.Package, error) {
		if !t.isLocal(p) {
			return nil, nil
		}
		pkg, err := t.load(p)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	})
	tpkg, info, err := typeCheck(t.fset, path, files, imp)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: path, Dir: dir, Fset: t.fset, Files: files, Types: tpkg, Info: info}
	t.pkgs[path] = pkg
	return pkg, nil
}

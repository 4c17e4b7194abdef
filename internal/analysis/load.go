package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: the shared fset, the
// parsed files (build-constraint filtered, non-test), and the go/types
// artifacts every analyzer reads.
type Package struct {
	// Path is the import path ("tlrchol/internal/core").
	Path string
	// Dir is the absolute directory.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// cfgs lazily caches per-function control-flow graphs so the flow-
	// sensitive analyzers share one CFG per body.
	cfgs map[*ast.BlockStmt]*CFG
}

// CFG returns the control-flow graph for a function body, building and
// caching it on first use.
func (p *Package) CFG(body *ast.BlockStmt) *CFG {
	if p.cfgs == nil {
		p.cfgs = make(map[*ast.BlockStmt]*CFG)
	}
	if c, ok := p.cfgs[body]; ok {
		return c
	}
	c := buildCFG(body, p.Info)
	p.cfgs[body] = c
	return c
}

// LoadError wraps parse/type errors: the tree could not be loaded, as
// opposed to loading cleanly and having findings. cmd/lint maps it to
// exit code 2.
type LoadError struct {
	Errs []error
}

func (e *LoadError) Error() string {
	if len(e.Errs) == 1 {
		return e.Errs[0].Error()
	}
	return fmt.Sprintf("%v (and %d more errors)", e.Errs[0], len(e.Errs)-1)
}

// Loader loads and type-checks packages of the enclosing module with a
// shared FileSet and a shared source importer, so dependency type
// information is computed once and reused across packages.
type Loader struct {
	Fset *token.FileSet
	imp  types.Importer
}

func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset: fset,
		// The source importer type-checks dependencies from source.
		// Since Go 1.20 the gc importer finds no pre-compiled export
		// data for the standard library, so "source" is the only
		// stdlib-only mode that works on a clean checkout.
		imp: importer.ForCompiler(fset, "source", nil),
	}
}

// Load resolves patterns (directories, or "dir/..." walks) to package
// directories, then parses and type-checks each. Returns a *LoadError
// if any package fails to parse or type-check.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	dirs, err := expandPatterns(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	var errs []error
	for _, dir := range dirs {
		pkg, perr := l.loadDir(dir)
		if perr != nil {
			if _, noGo := perr.(*build.NoGoError); noGo {
				continue
			}
			errs = append(errs, perr)
			continue
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	if len(errs) > 0 {
		return pkgs, &LoadError{Errs: errs}
	}
	return pkgs, nil
}

// loadDir loads the package in one directory. Build constraints select
// the file set (so e.g. kernel_amd64.go and kernel_noasm.go never
// collide); test files are excluded.
func (l *Loader) loadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	bp, err := build.ImportDir(abs, 0)
	if err != nil {
		return nil, err
	}
	importPath, err := modulePathOf(abs)
	if err != nil {
		return nil, err
	}

	var files []*ast.File
	var errs []error
	for _, name := range bp.GoFiles {
		f, perr := parser.ParseFile(l.Fset, filepath.Join(abs, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if perr != nil {
			errs = append(errs, perr)
			continue
		}
		files = append(files, f)
	}
	if len(errs) > 0 {
		return nil, &LoadError{Errs: errs}
	}
	if len(files) == 0 {
		return nil, nil
	}

	info := newInfo()
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, _ := conf.Check(importPath, l.Fset, files, info)
	if len(errs) > 0 {
		return nil, &LoadError{Errs: errs}
	}
	return &Package{
		Path:  importPath,
		Dir:   abs,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// newInfo returns a types.Info that records everything the analyzers
// read.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// modulePathOf computes the import path of dir by locating the
// enclosing go.mod and joining its module path with the relative
// directory.
func modulePathOf(dir string) (string, error) {
	root := dir
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return "", fmt.Errorf("no module line in %s/go.mod", root)
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return module, nil
	}
	return module + "/" + filepath.ToSlash(rel), nil
}

// expandPatterns turns CLI patterns into a sorted, deduplicated list
// of candidate package directories. "p/..." walks p recursively,
// skipping testdata, vendor, hidden and underscore-prefixed
// directories (matching the go tool's convention).
func expandPatterns(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, p := range patterns {
		if p == "..." {
			p = "./..."
		}
		if strings.HasSuffix(p, "/...") {
			root := strings.TrimSuffix(p, "/...")
			if root == "" {
				root = "."
			}
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
					name == "testdata" || name == "vendor") {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		} else {
			st, err := os.Stat(p)
			if err != nil {
				return nil, err
			}
			if !st.IsDir() {
				return nil, fmt.Errorf("%s is not a directory", p)
			}
			add(p)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

package analysis

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Run loads the packages matching patterns and runs every analyzer
// over each. Findings come back sorted and deduplicated, with file
// paths relative to the working directory. A non-nil error of type
// *LoadError means the tree failed to parse or type-check.
func Run(patterns []string, analyzers []*Analyzer) ([]Finding, error) {
	loader := NewLoader()
	pkgs, err := loader.Load(patterns)
	if err != nil {
		return nil, err
	}
	return RunPackages(pkgs, analyzers), nil
}

// RunPackages runs the analyzers over already-loaded packages, one
// package after another: loading from source dominates a run, so the
// passes gain nothing from running concurrently.
func RunPackages(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var all []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Pkg:      pkg,
				report:   func(f Finding) { all = append(all, f) },
			}
			a.Run(pass)
		}
	}

	all = relativize(all)
	sort.Slice(all, func(i, j int) bool { return all[i].less(all[j]) })
	// Deduplicate identical findings (e.g. one defect visible from two
	// syntactic walks).
	out := all[:0]
	for i, f := range all {
		if i == 0 || f != all[i-1] {
			out = append(out, f)
		}
	}
	return out
}

// relativize rewrites finding paths relative to the working directory
// so report lines are stable across checkouts.
func relativize(fs []Finding) []Finding {
	wd, err := os.Getwd()
	if err != nil {
		return fs
	}
	for i := range fs {
		if rel, rerr := filepath.Rel(wd, fs[i].Pos.Filename); rerr == nil && !filepath.IsAbs(rel) {
			fs[i].Pos.Filename = rel
		}
	}
	return fs
}

// jsonFinding is the -json wire form of one finding.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// WriteJSON renders findings as a JSON array (stable field order,
// one object per finding) to w.
func WriteJSON(w io.Writer, fs []Finding) error {
	out := make([]jsonFinding, len(fs))
	for i, f := range fs {
		out[i] = jsonFinding{
			File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
			Analyzer: f.Analyzer, Message: f.Message,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

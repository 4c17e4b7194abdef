// Command lint is the thin CLI over the repo's type-checked invariant
// analysis suite (internal/analysis). Usage:
//
//	go run ./cmd/lint [-json] ./...
//
//	-json            emit findings as a JSON array
//
// Exit codes: 0 clean, 1 findings, 2 the tree failed to load or
// type-check (a build break, not a lint finding) — scripts/check.sh
// gates on 0.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"tlrchol/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	fs.SetOutput(errOut)
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := analysis.Run(patterns, analysis.All())
	if err != nil {
		fmt.Fprintf(errOut, "lint: %v\n", err)
		return 2
	}
	if *jsonOut {
		if werr := analysis.WriteJSON(out, findings); werr != nil {
			fmt.Fprintf(errOut, "lint: %v\n", werr)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(out, f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(out, "lint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}

// Package verify is the static verification layer over the two
// graph-producing layers of the system: the trimming analysis and the
// task graphs built over it. The paper's central risk is
// silent incorrectness: DAG trimming (Section VI, Algorithm 1) deletes
// tasks and dependencies before the runtime ever sees them, and the
// graph builders wire edges the runtime trusts blindly — a missing
// RAW/WAR/WAW edge or an over-trimmed tile produces wrong numbers
// nondeterministically, not a crash. Each pass here proves, before
// execution, one property the runtime silently assumes:
//
//   - CheckGraph proves a runtime.Graph is acyclic, free of structural
//     defects, and hazard-complete: every RAW/WAR/WAW pair implied by
//     the tasks' declared accesses is ordered by a path in the graph,
//     so any runtime schedule is equivalent to the sequential insertion
//     order (serializability).
//   - CheckTrim proves a trim.Structure sound against an oracle
//     symbolic factorization recomputed independently from the rank
//     array: the trimmed task set is exactly the set of tasks touching
//     structurally non-zero or fill-in tiles — no over-trim (a missing
//     task would silently corrupt the factor), no under-trim (a
//     spurious task wastes the savings trimming exists to deliver).
//
// Passes return Findings rather than a bare error so callers can
// distinguish hard faults (Error: the structure must not be executed)
// from hygiene diagnostics (Warning: legal but suspicious).
package verify

import (
	"fmt"
	"strings"
)

// Severity classifies a finding.
type Severity int

const (
	// Warning marks a legal but suspicious structure (isolated tasks,
	// duplicate edges, serialized same-class writes).
	Warning Severity = iota
	// Error marks a fault: executing the structure can produce wrong
	// results or deadlock.
	Error
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Finding is one diagnostic from a verification pass.
type Finding struct {
	// Pass names the pass that produced the finding: "graph" or
	// "trim".
	Pass string
	// Severity distinguishes faults from hygiene diagnostics.
	Severity Severity
	// Msg describes the defect and where it is.
	Msg string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pass, f.Severity, f.Msg)
}

// Findings is the result of a verification pass.
type Findings []Finding

// Errors returns only the Error-severity findings.
func (fs Findings) Errors() Findings {
	var out Findings
	for _, f := range fs {
		if f.Severity == Error {
			out = append(out, f)
		}
	}
	return out
}

// Err converts the findings into an error: nil when no Error-severity
// finding is present, otherwise an error listing all of them.
func (fs Findings) Err() error {
	errs := fs.Errors()
	if len(errs) == 0 {
		return nil
	}
	msgs := make([]string, len(errs))
	for i, f := range errs {
		msgs[i] = f.String()
	}
	return fmt.Errorf("verify: %d fault(s):\n  %s", len(errs), strings.Join(msgs, "\n  "))
}

func (fs *Findings) add(pass string, sev Severity, format string, args ...interface{}) {
	*fs = append(*fs, Finding{Pass: pass, Severity: sev, Msg: fmt.Sprintf(format, args...)})
}

// Package diag is the IR diagnostics layer behind cmd/rpanalyze: a
// fixed table of pluggable rules run over a compiled (and
// alias-analyzed) program, each producing typed findings. The input
// program is never mutated — rules needing normalized or SSA form work
// on a Clone.
//
// Findings are deterministic: rules run in table order, walk blocks in
// function order, and the final report is sorted by (function, rule,
// block, detail), so two runs over the same program are byte-identical.
package diag

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/ir"
)

// SchemaVersion versions the JSON report shape.
const SchemaVersion = 1

// Severity classifies findings.
const (
	SevError = "error" // the IR violates an invariant
	SevWarn  = "warn"  // almost certainly a source-program defect
	SevInfo  = "info"  // analysis facts worth surfacing
)

// Finding is one diagnostic: a rule, the function and block it anchors
// to (Block is -1 for function-scoped findings), and a human detail.
type Finding struct {
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	Func     string `json:"func"`
	Block    int    `json:"block"` // post-normalize block ID; -1 if not block-scoped
	Detail   string `json:"detail"`
}

// String renders the finding as one report line.
func (f Finding) String() string {
	at := f.Func
	if f.Block >= 0 {
		at = fmt.Sprintf("%s b%d", f.Func, f.Block)
	}
	return fmt.Sprintf("%-5s %-18s %-14s %s", f.Severity, f.Rule, at, f.Detail)
}

// Options configures an analysis run.
type Options struct {
	// Rules selects a subset of rule names; nil or empty means all.
	Rules []string
	// PressureThreshold is the BlockMaxLive at or above which the
	// pressure-hotspot rule fires (0 = DefaultPressureThreshold).
	PressureThreshold int
}

// DefaultPressureThreshold approximates the allocatable-register count
// of a small RISC machine: blocks keeping 8+ values live are where a
// backend starts spilling.
const DefaultPressureThreshold = 8

// RuleInfo describes one registered rule, for -list-rules.
type RuleInfo struct {
	Name     string `json:"name"`
	Severity string `json:"severity"`
	Desc     string `json:"desc"`
}

// Rules lists the registered rules in execution order.
func Rules() []RuleInfo {
	out := make([]RuleInfo, len(ruleTable))
	for i, r := range ruleTable {
		out[i] = RuleInfo{Name: r.name, Severity: r.severity, Desc: r.desc}
	}
	return out
}

// AnalyzeProgram runs the selected rules over every function, in
// program declaration order. The program must have alias analysis
// applied (source.Compile + alias.Analyze, or any pipeline frontend);
// it is not mutated.
func AnalyzeProgram(prog *ir.Program, opts Options) ([]Finding, error) {
	selected, err := selectRules(opts.Rules)
	if err != nil {
		return nil, err
	}
	var all []Finding
	for _, f := range prog.Funcs {
		all = append(all, analyzeFunc(f, selected, opts)...)
	}
	sortFindings(all, prog)
	return all, nil
}

// selectRules resolves Options.Rules against the table, preserving
// table order; an unknown name is an error so typos cannot silently
// disable a rule.
func selectRules(names []string) ([]rule, error) {
	if len(names) == 0 {
		return ruleTable, nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		known := false
		for _, r := range ruleTable {
			if r.name == n {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("diag: unknown rule %q (have %s)", n, strings.Join(ruleNames(), ", "))
		}
		want[n] = true
	}
	var out []rule
	for _, r := range ruleTable {
		if want[r.name] {
			out = append(out, r)
		}
	}
	return out, nil
}

func ruleNames() []string {
	names := make([]string, len(ruleTable))
	for i, r := range ruleTable {
		names[i] = r.name
	}
	return names
}

// sortFindings orders findings canonically: program declaration order
// of the function, then rule name, block, and detail.
func sortFindings(fs []Finding, prog *ir.Program) {
	funcIdx := make(map[string]int, len(prog.Funcs))
	for i, f := range prog.Funcs {
		funcIdx[f.Name] = i
	}
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if funcIdx[a.Func] != funcIdx[b.Func] {
			return funcIdx[a.Func] < funcIdx[b.Func]
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		return a.Detail < b.Detail
	})
}

// Report is the versioned JSON shape rpanalyze -json emits.
type Report struct {
	SchemaVersion int       `json:"schema_version"`
	Findings      []Finding `json:"findings"`
	Errors        int       `json:"errors"`
	Warnings      int       `json:"warnings"`
}

// NewReport wraps findings with their severity tallies.
func NewReport(fs []Finding) Report {
	r := Report{SchemaVersion: SchemaVersion, Findings: fs}
	if r.Findings == nil {
		r.Findings = []Finding{}
	}
	for _, f := range fs {
		switch f.Severity {
		case SevError:
			r.Errors++
		case SevWarn:
			r.Warnings++
		}
	}
	return r
}

// MarshalJSON is provided on Report's value via the standard library;
// FormatJSON renders it indented with a trailing newline.
func FormatJSON(fs []Finding) ([]byte, error) {
	data, err := json.MarshalIndent(NewReport(fs), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Format renders the human report: one line per finding plus a tally.
func Format(fs []Finding) string {
	var sb strings.Builder
	for _, f := range fs {
		sb.WriteString(f.String())
		sb.WriteByte('\n')
	}
	rep := NewReport(fs)
	fmt.Fprintf(&sb, "%d finding(s): %d error(s), %d warning(s)\n",
		len(fs), rep.Errors, rep.Warnings)
	return sb.String()
}

// Package oracle is the property-based semantics oracle: it feeds
// streams of generated programs through the promotion pipeline and
// checks that promotion preserves meaning. Each program is compiled
// twice — once with promotion disabled (the control) and once with the
// paper's SSA promotion — and both versions run on both interpreter
// paths (the legacy reference and the bytecode engine). The four runs
// must agree on every observable: printed output, main's return value,
// and the final memory image of every global. Two more properties ride
// along: step-limit traps must be path-independent (a budget below a
// version's instruction count must produce ErrStepLimit on every path),
// and, optionally, printing the compiled program as textual IR and
// re-importing it must preserve the observables (the round-trip
// property tying internal/irimport to the native frontend).
//
// Failures are shrunk to minimal counterexamples with a line-based
// ddmin pass (see shrink.go) before they are reported, so a mismatch
// arrives as a few lines of mini-C rather than a 200-line generated
// program.
//
// Everything is deterministic: the program stream derives from
// Config.Seed via workload.DeriveSeed, and the package uses no clock
// (internal/lint enforces this), so a failing (seed, index) pair
// reproduces exactly.
package oracle

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irimport"
	"repro/internal/pipeline"
	"repro/internal/source"
	"repro/internal/workload"
)

// Config parameterizes an oracle run.
type Config struct {
	// Seed is the base seed of the program stream; program i uses
	// workload.DeriveSeed(Seed, i).
	Seed int64
	// Programs is how many generated programs to check (default 200).
	Programs int
	// Size selects the generator size class ("small", "medium",
	// "large"; default "small" — the oracle wants many programs more
	// than it wants big ones).
	Size string
	// MaxSteps bounds each interpreter run (default 20 million; the
	// generator emits terminating programs far below this).
	MaxSteps int64
	// RoundTrip additionally checks that print→reimport preserves the
	// observables of every program.
	RoundTrip bool
	// NoShrink reports raw counterexamples without the ddmin pass.
	NoShrink bool
	// Progress, when non-nil, is called after each program with the
	// number checked so far and the total.
	Progress func(done, total int)
}

// Mismatch is one failed equivalence check, shrunk when possible.
type Mismatch struct {
	// Index and Seed identify the failing program in the stream.
	Index int   `json:"index"`
	Seed  int64 `json:"seed"`
	// Property names the violated property: "observable" (the four-run
	// equivalence), "trap-parity", "round-trip", or "pipeline-error".
	Property string `json:"property"`
	// Detail says which runs disagreed and how.
	Detail string `json:"detail"`
	// Source is the counterexample program (shrunk unless
	// Config.NoShrink).
	Source string `json:"source"`
	// OrigLines and ShrunkLines record what shrinking achieved.
	OrigLines   int `json:"orig_lines"`
	ShrunkLines int `json:"shrunk_lines"`
}

// Report summarizes an oracle run.
type Report struct {
	// Seed, Programs, and Size echo the configuration.
	Seed     int64  `json:"seed"`
	Programs int    `json:"programs"`
	Size     string `json:"size"`
	// Runs counts interpreter executions performed.
	Runs int `json:"runs"`
	// Degraded counts programs where the pipeline rolled back promotion
	// for at least one function (not a mismatch: the control equivalence
	// still holds and is still checked).
	Degraded int `json:"degraded"`
	// Skipped counts programs discarded before checking because the
	// control run came too close to the step budget to leave every
	// variant and path room (a precondition failure, not a verdict).
	// Raise Config.MaxSteps to check them.
	Skipped int `json:"skipped"`
	// Mismatches holds every violated property, in stream order.
	Mismatches []Mismatch `json:"mismatches"`
}

// Ok reports whether the run found no mismatches.
func (r *Report) Ok() bool { return len(r.Mismatches) == 0 }

// Run checks cfg.Programs generated programs and reports every
// violated property.
func Run(cfg Config) (*Report, error) {
	if cfg.Programs <= 0 {
		cfg.Programs = 200
	}
	if cfg.Size == "" {
		cfg.Size = "small"
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 20_000_000
	}
	rep := &Report{Seed: cfg.Seed, Programs: cfg.Programs, Size: cfg.Size}
	ch := &checker{cfg: cfg, rep: rep}
	for i := 0; i < cfg.Programs; i++ {
		seed := workload.DeriveSeed(cfg.Seed, i)
		gcfg, err := workload.SizedGenConfig(seed, cfg.Size)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		src := workload.Generate(gcfg)
		fail, skip := ch.check(src)
		if skip {
			rep.Skipped++
		}
		if fail != nil {
			m := Mismatch{
				Index:     i,
				Seed:      seed,
				Property:  fail.property,
				Detail:    fail.detail,
				Source:    src,
				OrigLines: countLines(src),
			}
			if !cfg.NoShrink {
				m.Source = Shrink(src, func(cand string) bool {
					f, _ := ch.check(cand)
					return f != nil && f.property == fail.property
				})
			}
			m.ShrunkLines = countLines(m.Source)
			rep.Mismatches = append(rep.Mismatches, m)
		}
		if cfg.Progress != nil {
			cfg.Progress(i+1, cfg.Programs)
		}
	}
	return rep, nil
}

// CheckProgram runs the full property suite on a single source
// program and returns "" or a description of the violated property.
// rpbench -oracle-one and the shrinking predicate use it; tests use it
// to pin known-good programs.
func CheckProgram(src string, maxSteps int64, roundTrip bool) string {
	ch := &checker{cfg: Config{MaxSteps: maxSteps, RoundTrip: roundTrip}, rep: &Report{}}
	if ch.cfg.MaxSteps <= 0 {
		ch.cfg.MaxSteps = 20_000_000
	}
	f, skip := ch.check(src)
	if skip {
		return "skipped: control run too close to the step budget"
	}
	if f != nil {
		return f.property + ": " + f.detail
	}
	return ""
}

// failure is a violated property before it is packaged as a Mismatch.
type failure struct {
	property string
	detail   string
}

type checker struct {
	cfg Config
	rep *Report
}

// pathOpts enumerates the two interpreter paths: reference, then engine.
var pathOpts = []struct {
	name string
	opts interp.Options
}{
	{"legacy", interp.Options{Legacy: true}},
	{"bytecode", interp.Options{}},
}

// check runs every property on one source program. A non-nil return
// describes the first violated property; skip reports a precondition
// failure (the program outgrew the step budget), which is neither pass
// nor fail.
func (c *checker) check(src string) (fail *failure, skip bool) {
	control, err := pipeline.Run(src, pipeline.Options{
		Algorithm:       pipeline.AlgNone,
		StaticProfile:   true,
		SkipMeasurement: true,
	})
	if err != nil {
		return &failure{"pipeline-error", fmt.Sprintf("control compile: %v", err)}, false
	}
	promoted, err := pipeline.Run(src, pipeline.Options{
		Algorithm:       pipeline.AlgSSA,
		StaticProfile:   true,
		SkipMeasurement: true,
	})
	if err != nil {
		return &failure{"pipeline-error", fmt.Sprintf("promotion: %v", err)}, false
	}
	if len(promoted.Degraded) > 0 {
		c.rep.Degraded++
	}

	// Precondition probe: the control program must finish with at least
	// 4x headroom under the budget, so every variant on every path —
	// promotion inserts destruct copies, the legacy path counts every
	// instruction — still has room. Anything closer is skipped, not
	// judged: a step-limit trap there would say "big program", not
	// "wrong program".
	probe, err := interp.Run(control.Prog, interp.Options{MaxSteps: c.cfg.MaxSteps})
	c.rep.Runs++
	if errors.Is(err, interp.ErrStepLimit) || (err == nil && probe.Steps > c.cfg.MaxSteps/4) {
		return nil, true
	}
	if err != nil {
		return &failure{"observable", fmt.Sprintf("control/bytecode run failed: %v", err)}, false
	}

	// Property 1: all four runs agree on every observable.
	type run struct {
		name string
		res  *interp.Result
	}
	runs := make([]run, 0, 4)
	for _, variant := range []struct {
		name string
		prog *ir.Program
	}{{"control", control.Prog}, {"promoted", promoted.Prog}} {
		for _, p := range pathOpts {
			opts := p.opts
			opts.MaxSteps = c.cfg.MaxSteps
			res, err := interp.Run(variant.prog, opts)
			c.rep.Runs++
			if err != nil {
				return &failure{"observable",
					fmt.Sprintf("%s/%s run failed: %v", variant.name, p.name, err)}, false
			}
			runs = append(runs, run{variant.name + "/" + p.name, res})
		}
	}
	base := runs[0]
	for _, r := range runs[1:] {
		if diff := diffResults(base.res, r.res); diff != "" {
			return &failure{"observable",
				fmt.Sprintf("%s vs %s: %s", base.name, r.name, diff)}, false
		}
	}

	// Property 2: step-limit traps are path-independent. For each
	// version, a budget strictly below the cheapest path's instruction
	// count must trap every path with ErrStepLimit. (The bytecode path
	// fuses opcode pairs, so paths may count different totals for the
	// same execution — hence the min, and never a budget at an exact
	// count.)
	for vi, variant := range []struct {
		name string
		prog *ir.Program
	}{{"control", control.Prog}, {"promoted", promoted.Prog}} {
		minSteps := min(runs[vi*2].res.Steps, runs[vi*2+1].res.Steps)
		if minSteps < 8 {
			continue // too small for a meaningful cut
		}
		budget := minSteps / 2
		for _, p := range pathOpts {
			opts := p.opts
			opts.MaxSteps = budget
			_, err := interp.Run(variant.prog, opts)
			c.rep.Runs++
			if !errors.Is(err, interp.ErrStepLimit) {
				return &failure{"trap-parity",
					fmt.Sprintf("%s/%s with budget %d (half of %d): got %v, want step-limit trap",
						variant.name, p.name, budget, minSteps, err)}, false
			}
		}
	}

	// Property 3 (optional): print→reimport preserves observables.
	if c.cfg.RoundTrip {
		if f := c.roundTrip(src, base.res); f != nil {
			return f, false
		}
	}
	return nil, false
}

// roundTrip prints the plainly-compiled program as textual IR,
// re-imports it, and holds the re-imported program to the control
// observables on the bytecode engine.
func (c *checker) roundTrip(src string, want *interp.Result) *failure {
	prog, err := source.Compile(src)
	if err != nil {
		return &failure{"round-trip", fmt.Sprintf("plain compile: %v", err)}
	}
	text, err := ir.ProgramText(prog)
	if err != nil {
		return &failure{"round-trip", fmt.Sprintf("print: %v", err)}
	}
	back, err := irimport.Compile(text)
	if err != nil {
		return &failure{"round-trip", fmt.Sprintf("reimport of printed IR: %v", err)}
	}
	res, err := interp.Run(back, interp.Options{MaxSteps: c.cfg.MaxSteps})
	c.rep.Runs++
	if err != nil {
		return &failure{"round-trip", fmt.Sprintf("run of reimported program: %v", err)}
	}
	// The lowering inserts copies, so step counts legitimately differ;
	// only the observables must survive the trip.
	if diff := diffResults(want, res); diff != "" {
		return &failure{"round-trip", "reimported program diverges: " + diff}
	}
	return nil
}

// diffResults compares the observables of two runs and describes the
// first difference, or returns "".
func diffResults(a, b *interp.Result) string {
	if a.ReturnValue != b.ReturnValue {
		return fmt.Sprintf("return value %d vs %d", a.ReturnValue, b.ReturnValue)
	}
	if !reflect.DeepEqual(a.Output, b.Output) {
		if len(a.Output) != len(b.Output) {
			return fmt.Sprintf("output length %d vs %d", len(a.Output), len(b.Output))
		}
		for i := range a.Output {
			if a.Output[i] != b.Output[i] {
				return fmt.Sprintf("output[%d] = %d vs %d", i, a.Output[i], b.Output[i])
			}
		}
	}
	names := make([]string, 0, len(a.Globals))
	for name := range a.Globals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !reflect.DeepEqual(a.Globals[name], b.Globals[name]) {
			return fmt.Sprintf("final @%s = %v vs %v", name, a.Globals[name], b.Globals[name])
		}
	}
	return ""
}

func countLines(s string) int {
	return strings.Count(strings.TrimRight(s, "\n"), "\n") + 1
}

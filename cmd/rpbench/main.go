// Command rpbench regenerates the paper's evaluation tables over the
// SPECInt95-analogue workload suite, plus the ablation comparisons.
//
// Usage:
//
//	rpbench                 # all tables and ablations
//	rpbench -table 2        # just the dynamic counts table
//	rpbench -ablations      # just the ablations
//	rpbench -static-profile # promote with the static estimator instead
//
// Pressure mode runs the suite (plus -pressure-gen generated programs)
// under pressure-aware promotion and reports the Table-3-style color
// counts against the no-cap baseline:
//
//	rpbench -pressure-bench -pressure-cap 8 -pressure-gen 8 -json BENCH_pressure.json
//
// Oracle mode checks seeded generated programs for semantic
// equivalence with and without promotion:
//
//	rpbench -oracle 200 -seed 1 -size small -oracle-roundtrip
//
// Throughput and per-layer cost are measured by the benchmark in
// bench/ (make bench), not here.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/pipeline"
	"repro/internal/profiling"
	"repro/internal/report"
)

// config holds rpbench's parsed flags.
type config struct {
	table                    int
	ablations, static, paper bool
	check                    string
	failFast                 bool
	seed                     int64
	size                     string
	oracleN                  int
	oracleRT, presBench      bool
	presCap, presGen         int
	jsonOut                  string
	cpuprofile, memprofile   string
}

// registerFlags defines rpbench's flags on fs.
func registerFlags(fs *flag.FlagSet) *config {
	c := &config{}
	fs.IntVar(&c.table, "table", 0, "table to regenerate: 1, 2, or 3 (0 = all)")
	fs.BoolVar(&c.ablations, "ablations", false, "run only the ablation comparisons")
	fs.BoolVar(&c.static, "static-profile", false, "use the static loop-depth profile estimator")
	fs.BoolVar(&c.paper, "paper-formula", false, "use the paper's exact profit formula")
	fs.StringVar(&c.check, "check", "off", "pipeline self-checking level: off, boundaries, or paranoid")
	fs.BoolVar(&c.failFast, "failfast", false, "abort on the first stage failure instead of degrading the function")
	fs.Int64Var(&c.seed, "seed", 1, "base seed for the -oracle and -pressure-gen generated programs")
	fs.StringVar(&c.size, "size", "medium", "generated program size for -oracle and -pressure-gen: small, medium, or large")
	fs.IntVar(&c.oracleN, "oracle", 0, "run the semantics oracle over N seeded generated programs (uses -seed and -size), write -json, and exit")
	fs.BoolVar(&c.oracleRT, "oracle-roundtrip", false, "oracle mode: also check print→reimport round-trip equivalence")
	fs.BoolVar(&c.presBench, "pressure-bench", false, "run the pressure-aware promotion table over the suite plus -pressure-gen programs, write -json, and exit")
	fs.IntVar(&c.presCap, "pressure-cap", 8, "pressure mode: register-pressure color cap")
	fs.IntVar(&c.presGen, "pressure-gen", 0, "pressure mode: generated stress programs to add to the suite (uses -seed and -size)")
	fs.StringVar(&c.jsonOut, "json", "", "oracle and pressure modes: write a machine-readable record to this file")
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memprofile, "memprofile", "", "write an allocation profile to this file on exit")
	return c
}

// validate rejects flag values that would otherwise be ignored or
// misread before any work starts, and returns the options the tables,
// ablations and pressure mode run with. Values the pipeline, the oracle
// or the pressure table check themselves (-size, -pressure-cap) are
// left to them.
func (c *config) validate() (report.Options, error) {
	if c.table < 0 || c.table > 3 {
		return report.Options{}, fmt.Errorf("-table %d: want 1, 2, or 3 (0 = all)", c.table)
	}
	level, err := pipeline.ParseCheckLevel(c.check)
	if err != nil {
		return report.Options{}, err
	}
	if c.oracleN < 0 {
		return report.Options{}, fmt.Errorf("-oracle %d: want 0 or more", c.oracleN)
	}
	if c.presGen < 0 {
		return report.Options{}, fmt.Errorf("-pressure-gen %d: want 0 or more", c.presGen)
	}
	return report.Options{
		StaticProfile:      c.static,
		PaperProfitFormula: c.paper,
		Check:              level,
		FailFast:           c.failFast,
	}, nil
}

func main() {
	c := registerFlags(flag.CommandLine)
	flag.Parse()
	opts, err := c.validate()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpbench:", err)
		os.Exit(2)
	}
	if err := run(c, opts); err != nil {
		// Stage failures print as their structured one-line message,
		// never a raw panic trace.
		var se *pipeline.StageError
		if errors.As(err, &se) {
			err = se
		}
		fmt.Fprintln(os.Stderr, "rpbench:", err)
		os.Exit(1)
	}
}

// run executes the selected mode. Every error returns through here, so
// the deferred profile flush runs on failing paths too.
func run(c *config, opts report.Options) (err error) {
	stopCPU, err := profiling.StartCPU(c.cpuprofile)
	if err != nil {
		return err
	}
	defer func() {
		stopCPU()
		if werr := profiling.WriteHeap(c.memprofile); werr != nil && err == nil {
			err = werr
		}
	}()

	switch {
	case c.oracleN > 0:
		return runOracle(oracleConfig{
			Programs:  c.oracleN,
			Seed:      c.seed,
			Size:      c.size,
			RoundTrip: c.oracleRT,
			JSONPath:  c.jsonOut,
		})
	case c.presBench:
		return runPressureBench(pressureConfig{
			Cap:       c.presCap,
			Generated: c.presGen,
			Seed:      c.seed,
			Size:      c.size,
			Opts:      opts,
			JSONPath:  c.jsonOut,
		})
	case c.ablations:
		return runAblations()
	}

	if c.table == 0 || c.table == 1 {
		rows, err := report.Table1(opts)
		if err != nil {
			return err
		}
		fmt.Println(report.FormatTable1(rows))
	}
	if c.table == 0 || c.table == 2 {
		rows, err := report.Table2(opts)
		if err != nil {
			return err
		}
		fmt.Println(report.FormatTable2(rows))
	}
	if c.table == 0 || c.table == 3 {
		rows, err := report.Table3(opts)
		if err != nil {
			return err
		}
		fmt.Println(report.FormatTable3(rows))
	}
	if c.table == 0 {
		return runAblations()
	}
	return nil
}

func runAblations() error {
	comparisons := []struct {
		a, b           report.Options
		labelA, labelB string
	}{
		{report.Options{Algorithm: pipeline.AlgSSA}, report.Options{Algorithm: pipeline.AlgBaseline}, "ssa", "loop-baseline"},
		{report.Options{}, report.Options{StaticProfile: true}, "measured-profile", "static-profile"},
		{report.Options{}, report.Options{PaperProfitFormula: true}, "safe-formula", "paper-formula"},
		{report.Options{}, report.Options{WholeFunctionScope: true}, "interval-scope", "whole-func-scope"},
		{report.Options{}, report.Options{Algorithm: pipeline.AlgMemOpt}, "promotion", "memopt-only"},
	}
	for _, c := range comparisons {
		rows, err := report.Ablation(c.a, c.b, c.labelA, c.labelB)
		if err != nil {
			return err
		}
		fmt.Println(report.FormatAblation(rows))
	}
	return nil
}

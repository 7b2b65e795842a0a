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
// Batch mode shards a stress corpus (the suite plus generated
// programs) across goroutines and reports throughput, per-stage wall
// time, and a machine-readable record for before/after comparison:
//
//	rpbench -batch 24 -j 8             # suite + 24 generated, 8 shards
//	rpbench -batch 24 -j 1 -json a.json && rpbench -batch 24 -j 8 -json b.json
//	rpbench -workers 4                 # per-program transform workers
//
// Pressure mode runs the suite (plus -pressure-gen generated programs)
// under pressure-aware promotion and reports the Table-3-style color
// counts against the no-cap baseline:
//
//	rpbench -pressure-bench -pressure-cap 8 -pressure-gen 8 -json BENCH_pressure.json
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

func main() {
	var (
		table      = flag.Int("table", 0, "table to regenerate: 1, 2, or 3 (0 = all)")
		ablations  = flag.Bool("ablations", false, "run only the ablation comparisons")
		static     = flag.Bool("static-profile", false, "use the static loop-depth profile estimator")
		paper      = flag.Bool("paper-formula", false, "use the paper's exact profit formula")
		check      = flag.String("check", "off", "pipeline self-checking level: off, boundaries, or paranoid")
		failFast   = flag.Bool("failfast", false, "abort on the first stage failure instead of degrading the function")
		workers    = flag.Int("workers", 1, "per-program pipeline workers (0 = GOMAXPROCS, 1 = sequential)")
		batch      = flag.Int("batch", -1, "batch mode: run the suite plus N generated stress programs (-1 = off, 0 = suite only)")
		seed       = flag.Int64("seed", 1, "base seed for the generated batch corpus")
		size       = flag.String("size", "medium", "batch mode: generated workload size: small, medium, or large")
		jobs       = flag.Int("j", 1, "batch mode: shard corpus entries across N goroutines")
		legacy     = flag.Bool("legacy", false, "batch mode: run the pre-optimization paths (no analysis cache, reference interpreter) as the benchmark baseline")
		irEvery    = flag.Int("ir-every", 0, "batch mode: replace every Nth generated entry with an imported real-IR program (0 = off)")
		oracleN    = flag.Int("oracle", 0, "run the semantics oracle over N seeded generated programs (uses -seed and -size), write -json, and exit")
		oracleRT   = flag.Bool("oracle-roundtrip", false, "oracle mode: also check print→reimport round-trip equivalence")
		presBench  = flag.Bool("pressure-bench", false, "run the pressure-aware promotion table over the suite plus -pressure-gen programs, write -json, and exit")
		presCap    = flag.Int("pressure-cap", 8, "pressure mode: register-pressure color cap")
		presGen    = flag.Int("pressure-gen", 0, "pressure mode: generated stress programs to add to the suite (uses -seed and -size)")
		timings    = flag.Bool("timings", false, "batch mode: print aggregated per-stage wall times")
		jsonOut    = flag.String("json", "", "batch mode: write a machine-readable benchmark record to this file")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	stopCPU, err := profiling.StartCPU(*cpuprofile)
	if err != nil {
		fatal(err)
	}
	// Flushed both on the normal return path (deferred) and right before
	// fatal exits, which bypass defers; the once-guard keeps the two
	// paths from flushing twice.
	flushed := false
	finishProfiles := func() {
		if flushed {
			return
		}
		flushed = true
		stopCPU()
		if err := profiling.WriteHeap(*memprofile); err != nil {
			fmt.Fprintln(os.Stderr, "rpbench:", err)
		}
	}
	defer finishProfiles()

	if *oracleN > 0 {
		if err := runOracle(oracleConfig{
			Programs:  *oracleN,
			Seed:      *seed,
			Size:      *size,
			RoundTrip: *oracleRT,
			JSONPath:  *jsonOut,
		}); err != nil {
			finishProfiles()
			fatal(err)
		}
		return
	}

	checkLevel, err := pipeline.ParseCheckLevel(*check)
	if err != nil {
		fatal(err)
	}
	opts := report.Options{
		StaticProfile:      *static,
		PaperProfitFormula: *paper,
		Check:              checkLevel,
		FailFast:           *failFast,
		Workers:            *workers,
	}

	if *presBench {
		if err := runPressureBench(pressureConfig{
			Cap:       *presCap,
			Generated: *presGen,
			Seed:      *seed,
			Size:      *size,
			Opts:      opts,
			JSONPath:  *jsonOut,
		}); err != nil {
			finishProfiles()
			fatal(err)
		}
		return
	}

	if *batch >= 0 {
		if err := runBatch(batchConfig{
			Generated: *batch,
			IREvery:   *irEvery,
			Seed:      *seed,
			Size:      *size,
			Jobs:      *jobs,
			Workers:   *workers,
			Check:     checkLevel,
			Legacy:    *legacy,
			Timings:   *timings,
			JSONPath:  *jsonOut,
		}); err != nil {
			finishProfiles()
			fatal(err)
		}
		return
	}

	if *ablations {
		runAblations()
		return
	}

	if *table == 0 || *table == 1 {
		rows, err := report.Table1(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Print(report.FormatTable1(rows))
		fmt.Println()
	}
	if *table == 0 || *table == 2 {
		rows, err := report.Table2(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Print(report.FormatTable2(rows))
		fmt.Println()
	}
	if *table == 0 || *table == 3 {
		rows, err := report.Table3(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Print(report.FormatTable3(rows))
		fmt.Println()
	}
	if *table == 0 {
		runAblations()
	}
}

func runAblations() {
	comparisons := []struct {
		a, b           report.Options
		labelA, labelB string
	}{
		{
			report.Options{Algorithm: pipeline.AlgSSA},
			report.Options{Algorithm: pipeline.AlgBaseline},
			"ssa", "loop-baseline",
		},
		{
			report.Options{},
			report.Options{StaticProfile: true},
			"measured-profile", "static-profile",
		},
		{
			report.Options{},
			report.Options{PaperProfitFormula: true},
			"safe-formula", "paper-formula",
		},
		{
			report.Options{},
			report.Options{WholeFunctionScope: true},
			"interval-scope", "whole-func-scope",
		},
		{
			report.Options{},
			report.Options{Algorithm: pipeline.AlgMemOpt},
			"promotion", "memopt-only",
		},
	}
	for _, c := range comparisons {
		rows, err := report.Ablation(c.a, c.b, c.labelA, c.labelB)
		if err != nil {
			fatal(err)
		}
		fmt.Print(report.FormatAblation(rows))
		fmt.Println()
	}
}

// fatal prints the error — stage failures as their structured one-line
// message, never a raw panic trace — and exits non-zero.
func fatal(err error) {
	var se *pipeline.StageError
	if errors.As(err, &se) {
		fmt.Fprintln(os.Stderr, "rpbench:", se.Error())
	} else {
		fmt.Fprintln(os.Stderr, "rpbench:", err)
	}
	os.Exit(1)
}

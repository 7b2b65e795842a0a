// Command rpromote runs the register promotion pipeline on one mini-C
// program and reports what happened: promotion statistics, static and
// dynamic memory-operation counts before and after, and optionally the
// transformed IR.
//
// Usage:
//
//	rpromote -workload go            # run a built-in benchmark
//	rpromote -file prog.c            # run a mini-C source file
//	rpromote -file prog.c -dump      # also print the final IR
//	rpromote -workload go -alg baseline
//	rpromote -workload go -pressure-cap 8   # capped promotion report
//	rpromote -list                   # list built-in workloads
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/faults"
	"repro/internal/irimport"
	"repro/internal/pipeline"
	"repro/internal/profiling"
	"repro/internal/regalloc"
	"repro/internal/report"
	"repro/internal/workload"
)

func main() {
	var (
		file        = flag.String("file", "", "source file to compile (.mc/.c mini-C or .ll textual IR, by extension)")
		lang        = flag.String("lang", "", "input language override: mc or ll (default: detect from the -file extension)")
		wl          = flag.String("workload", "", "built-in workload name (see -list)")
		list        = flag.Bool("list", false, "list built-in workloads and exit")
		alg         = flag.String("alg", "ssa", "promotion algorithm: ssa, baseline, memopt, none")
		dump        = flag.Bool("dump", false, "print the transformed IR")
		static      = flag.Bool("static-profile", false, "use the static loop-depth profile estimator")
		paper       = flag.Bool("paper-formula", false, "use the paper's exact profit formula (tail stores uncounted)")
		wholeFunc   = flag.Bool("whole-function", false, "promote at whole-function scope (the paper's rejected first approach)")
		preMemOpts  = flag.Bool("memopts", false, "run memory-SSA scalar optimizations before promotion")
		regPressure = flag.Bool("pressure", false, "report register pressure per function")
		pressureCap = flag.Int("pressure-cap", 0, "hard register-pressure cap: promoted code never needs more than max(cap, baseline) colors (0 = off)")
		check       = flag.String("check", "off", "self-checking level: off, boundaries, or paranoid")
		failFast    = flag.Bool("failfast", false, "abort on the first stage failure instead of degrading the function")
		fault       = flag.String("fault", "", "inject a fault at stage[/func][:error|panic], e.g. promote/main:panic")
		verbose     = flag.Bool("verbose-errors", false, "print the full stage failure report (stack and IR snapshot)")
		workers     = flag.Int("workers", 1, "per-function transform workers (0 = GOMAXPROCS, 1 = sequential)")
		timings     = flag.Bool("timings", false, "print per-stage wall times")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	stopCPU, err := profiling.StartCPU(*cpuprofile)
	if err != nil {
		fatal(err, false)
	}
	defer func() {
		stopCPU()
		if err := profiling.WriteHeap(*memprofile); err != nil {
			fmt.Fprintln(os.Stderr, "rpromote:", err)
		}
	}()

	checkLevel, err := pipeline.ParseCheckLevel(*check)
	if err != nil {
		fatal(err, *verbose)
	}
	var injector *faults.Injector
	var plan faults.Plan
	if *fault != "" {
		plan, err = faults.ParsePlan(*fault)
		if err != nil {
			fatal(err, *verbose)
		}
		if !slices.Contains(pipeline.Stages(), plan.Stage) {
			fatal(fmt.Errorf("unknown stage %q (want one of %s)",
				plan.Stage, strings.Join(pipeline.Stages(), ", ")), *verbose)
		}
		injector = faults.New(plan)
	}

	if *list {
		for _, w := range workload.Suite() {
			fmt.Printf("%-10s %s\n", w.Name, w.Description)
		}
		return
	}

	src, name, srcLang, err := loadSource(*file, *wl, *lang)
	if err != nil {
		fatal(err, *verbose)
	}

	var algorithm pipeline.Algorithm
	switch *alg {
	case "ssa":
		algorithm = pipeline.AlgSSA
	case "baseline":
		algorithm = pipeline.AlgBaseline
	case "memopt":
		algorithm = pipeline.AlgMemOpt
	case "none":
		algorithm = pipeline.AlgNone
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *alg), *verbose)
	}

	out, err := pipeline.Run(src, pipeline.Options{
		Lang:               srcLang,
		Algorithm:          algorithm,
		StaticProfile:      *static,
		PaperProfitFormula: *paper,
		WholeFunctionScope: *wholeFunc,
		PreMemOpts:         *preMemOpts,
		Check:              checkLevel,
		FailFast:           *failFast,
		Faults:             injector,
		Workers:            *workers,
		PressureCap:        *pressureCap,
	})
	if err != nil {
		fatal(err, *verbose)
	}
	if injector != nil && injector.Fired() == 0 {
		// A fault that never fires would make this run look like a
		// passing fault test.
		hint := ""
		if plan.Stage == "measure-before" {
			hint = " (measure-before runs only with -static-profile)"
		}
		fatal(fmt.Errorf("fault %s never fired: the run never reached that site%s", plan, hint), *verbose)
	}

	fmt.Printf("program: %s (algorithm: %s, check: %s)\n\n", name, algorithm, checkLevel)
	for _, d := range out.Degraded {
		fmt.Printf("DEGRADED %s at stage %s: %v\n", d.Func, d.Stage, d.Err.Err)
	}
	if len(out.Degraded) > 0 {
		fmt.Println()
	}
	fmt.Printf("static  loads: %6d -> %6d    stores: %6d -> %6d\n",
		out.StaticBefore.Loads, out.StaticAfter.Loads,
		out.StaticBefore.Stores, out.StaticAfter.Stores)
	fmt.Printf("dynamic loads: %6d -> %6d    stores: %6d -> %6d\n",
		out.Before.DynLoads(), out.After.DynLoads(),
		out.Before.DynStores(), out.After.DynStores())
	total := out.Before.DynMemOps()
	if total > 0 {
		saved := total - out.After.DynMemOps()
		fmt.Printf("dynamic memory operations removed: %d of %d (%.1f%%)\n",
			saved, total, float64(saved)/float64(total)*100)
	}
	s := out.TotalStats
	fmt.Printf("\nwebs: %d considered, %d promoted, %d load-only, %d rejected\n",
		s.WebsConsidered, s.WebsPromoted, s.WebsLoadOnly, s.WebsRejected)
	fmt.Printf("loads: %d replaced, %d inserted; stores: %d deleted, %d inserted\n",
		s.LoadsReplaced, s.LoadsInserted, s.StoresDeleted, s.StoresInserted)

	if equalOutputs(out) {
		fmt.Println("\nsemantics check: outputs and final memory identical ✓")
	} else {
		fmt.Println("\nsemantics check: MISMATCH — this is a bug")
		os.Exit(1)
	}

	if *timings {
		fmt.Println()
		fmt.Print(report.FormatStageTimings(report.SumStageTimings(out)))
	}

	if *regPressure {
		fmt.Println()
		results, names := regalloc.AllocateProgram(out.Prog)
		for _, fn := range names {
			r := results[fn]
			fmt.Printf("pressure %-16s colors=%d maxlive=%d nodes=%d edges=%d\n",
				fn, r.Colors, r.MaxLive, r.Nodes, r.Edges)
		}
	}

	if *pressureCap > 0 {
		fmt.Println()
		results, names := regalloc.AllocateProgram(out.Prog)
		for _, fn := range names {
			pres := out.Pressure[fn]
			if pres == nil {
				continue
			}
			fmt.Printf("cap %-16s baseline=%d uncapped=%d final=%d effcap=%d budget=%d trials=%d demoted=%d\n",
				fn, pres.BaselineColors, pres.UncappedColors, pres.FinalColors,
				pres.EffectiveCap, pres.BudgetUsed, pres.Trials, pres.Stats.WebsDemoted)
			if r := results[fn]; r != nil && r.Colors > pres.EffectiveCap {
				fmt.Printf("cap %-16s VIOLATION: emitted IR needs %d colors\n", fn, r.Colors)
				os.Exit(1)
			}
		}
	}

	if *dump {
		fmt.Println()
		fmt.Print(out.Prog)
	}
}

// loadSource resolves the program text and its input language: an
// explicit -lang wins, otherwise -file detects by extension and
// workloads carry their own tag.
func loadSource(file, wl, lang string) (src, name, srcLang string, err error) {
	if lang != "" && lang != irimport.LangMiniC && lang != irimport.LangIR {
		return "", "", "", fmt.Errorf("unknown -lang %q (want mc or ll)", lang)
	}
	switch {
	case file != "" && wl != "":
		return "", "", "", fmt.Errorf("use either -file or -workload, not both")
	case file != "":
		data, err := os.ReadFile(file)
		if err != nil {
			return "", "", "", err
		}
		if lang == "" {
			if lang, err = irimport.DetectLang(file); err != nil {
				return "", "", "", err
			}
		}
		return string(data), file, lang, nil
	case wl != "":
		w, ok := workload.ByName(wl)
		if !ok {
			return "", "", "", fmt.Errorf("unknown workload %q (try -list)", wl)
		}
		if lang == "" {
			lang = w.Lang
		}
		return w.Src, "workload:" + w.Name, lang, nil
	}
	return "", "", "", fmt.Errorf("one of -file or -workload is required")
}

func equalOutputs(out *pipeline.Outcome) bool {
	if out.Before == nil || out.After == nil {
		return true
	}
	if len(out.Before.Output) != len(out.After.Output) {
		return false
	}
	for i := range out.Before.Output {
		if out.Before.Output[i] != out.After.Output[i] {
			return false
		}
	}
	for name, img := range out.Before.Globals {
		other := out.After.Globals[name]
		if len(img) != len(other) {
			return false
		}
		for i := range img {
			if img[i] != other[i] {
				return false
			}
		}
	}
	return true
}

// fatal prints the error and exits non-zero. Stage failures come out as
// their structured one-line message; -verbose-errors adds the captured
// stack and IR snapshot.
func fatal(err error, verbose bool) {
	var se *pipeline.StageError
	if verbose && errors.As(err, &se) {
		fmt.Fprintln(os.Stderr, "rpromote:", se.Detail())
	} else {
		fmt.Fprintln(os.Stderr, "rpromote:", err)
	}
	os.Exit(1)
}

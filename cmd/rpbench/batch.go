package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/interp"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/workload"
)

// batchConfig parameterizes one batch (stress-corpus) run.
type batchConfig struct {
	// Generated is how many generated stress programs to append to the
	// eight suite workloads.
	Generated int
	// Seed is the base seed the corpus entries derive theirs from.
	Seed int64
	// Size scales the generated programs: small, medium (default), or
	// large (see workload.SizedGenConfig).
	Size string
	// IREvery, when positive, replaces every IREvery-th generated entry
	// with an imported real-IR program (workload.ImportedSuite), so the
	// batch exercises the import frontend alongside the native one.
	IREvery int
	// Jobs shards corpus entries across goroutines.
	Jobs int
	// Workers is the per-program pipeline worker count.
	Workers int
	// Check is the pipeline self-checking level.
	Check pipeline.CheckLevel
	// Legacy runs the pre-optimization paths — no cross-stage analysis
	// cache, the reference interpreter — as the before side of the
	// hot-path comparison.
	Legacy bool
	// Timings prints the aggregated per-stage wall time table.
	Timings bool
	// JSONPath, when non-empty, receives a machine-readable record of
	// the run for before/after comparisons.
	JSONPath string
}

// entryResult is the outcome of one corpus entry. Results are stored at
// the entry's index, so aggregation order is independent of which shard
// finished first.
type entryResult struct {
	Name     string
	Err      error
	Out      *pipeline.Outcome
	Wall     time.Duration
	Degraded []string
}

// batchRecord is the JSON shape written by -json: enough to compare a
// before/after pair of runs (wall clock, throughput, per-stage time)
// and to confirm both runs computed the same thing (improvement and
// degradation totals are worker-count-invariant). It carries the shared
// report.SchemaVersion and the shared report.StageMS rows, so batch
// records and the serving layer's BENCH_serve.json stay one schema.
type batchRecord struct {
	SchemaVersion  int              `json:"schema_version"`
	Entries        int              `json:"entries"`
	Generated      int              `json:"generated"`
	Seed           int64            `json:"seed"`
	Size           string           `json:"size"`
	Mix            map[string]int   `json:"mix"` // corpus entries by input language
	Jobs           int              `json:"jobs"`
	Workers        int              `json:"workers"`
	Check          string           `json:"check"`
	Legacy         bool             `json:"legacy"`
	ElapsedMS      float64          `json:"elapsed_ms"`
	CPUMS          float64          `json:"cpu_ms"` // summed per-entry wall
	EntriesPerSec  float64          `json:"entries_per_sec"`
	Functions      int              `json:"functions"`
	NsPerFunction  float64          `json:"ns_per_function"` // cpu / functions
	AllocsPerFunc  float64          `json:"allocs_per_func"` // heap allocations / functions
	AllocBytesPerF float64          `json:"alloc_bytes_per_func"`
	Failures       int              `json:"failures"`
	DegradedFuncs  int              `json:"degraded_funcs"`
	MeanImprovePct float64          `json:"mean_improvement_pct"`
	Stages         []report.StageMS `json:"stages"`
}

// runBatch compiles and measures the suite plus a generated stress
// corpus, sharding entries across cfg.Jobs goroutines. Per-entry
// results land at fixed indexes and every summary walks them in entry
// order, so the output is deterministic for any -j.
func runBatch(cfg batchConfig) error {
	corpus := workload.Suite()
	if cfg.Generated > 0 {
		gen, err := workload.ReplayCorpusMix(cfg.Seed, cfg.Generated, cfg.Size, cfg.IREvery)
		if err != nil {
			return err
		}
		corpus = append(corpus, gen...)
	}
	mix := workload.MixComposition(corpus)

	popts := pipeline.Options{
		Check:   cfg.Check,
		Workers: cfg.Workers,
		// Generated programs terminate by construction, but bound the
		// interpreter anyway so a generator bug cannot hang the batch.
		Interp: interp.Options{MaxSteps: 50_000_000, Timeout: 2 * time.Minute},
		// Legacy mode measures the pre-optimization baseline: every
		// stage rebuilds its own analyses and the interpreter uses the
		// original map-based accounting.
		NoAnalysisCache: cfg.Legacy,
	}
	popts.Interp.Legacy = cfg.Legacy

	jobs := cfg.Jobs
	if jobs < 1 {
		jobs = 1
	}
	if jobs > len(corpus) {
		jobs = len(corpus)
	}

	results := make([]entryResult, len(corpus))
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	indexes := make(chan int)
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indexes {
				w := corpus[i]
				eopts := popts
				eopts.Lang = w.Lang
				t0 := time.Now()
				out, err := pipeline.Run(w.Src, eopts)
				r := entryResult{Name: w.Name, Err: err, Out: out, Wall: time.Since(t0)}
				if out != nil {
					r.Degraded = out.DegradedFuncs()
				}
				results[i] = r
			}
		}()
	}
	for i := range corpus {
		indexes <- i
	}
	close(indexes)
	wg.Wait()
	elapsed := time.Since(start)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)

	var (
		failures, degraded int
		funcs              int
		cpu                time.Duration
		improveSum         float64
		improveN           int
		outcomes           []*pipeline.Outcome
	)
	for _, r := range results {
		cpu += r.Wall
		if r.Err != nil {
			failures++
			fmt.Printf("FAIL %-10s %v\n", r.Name, r.Err)
			continue
		}
		degraded += len(r.Degraded)
		funcs += len(r.Out.Prog.Funcs)
		outcomes = append(outcomes, r.Out)
		if r.Out.Before != nil && r.Out.After != nil && r.Out.Before.DynMemOps() > 0 {
			before, after := r.Out.Before.DynMemOps(), r.Out.After.DynMemOps()
			improveSum += float64(before-after) / float64(before) * 100
			improveN++
		}
		for _, fn := range r.Degraded {
			fmt.Printf("DEGRADED %-10s %s\n", r.Name, fn)
		}
	}
	mean := 0.0
	if improveN > 0 {
		mean = improveSum / float64(improveN)
	}

	// Per-function cost: total per-entry wall time and whole-process heap
	// allocation, divided by functions processed. Comparing a -legacy run
	// against a default run at the same -j isolates what the analysis
	// cache and the bytecode engine buy.
	allocs := float64(msAfter.Mallocs - msBefore.Mallocs)
	allocBytes := float64(msAfter.TotalAlloc - msBefore.TotalAlloc)
	nsPerFunc, allocsPerFunc, bytesPerFunc := 0.0, 0.0, 0.0
	if funcs > 0 {
		nsPerFunc = float64(cpu.Nanoseconds()) / float64(funcs)
		allocsPerFunc = allocs / float64(funcs)
		bytesPerFunc = allocBytes / float64(funcs)
	}

	mode := "default"
	if cfg.Legacy {
		mode = "legacy"
	}
	fmt.Printf("batch: %d entries (%d generated, seed %d, size %s, mix mc=%d ll=%d), -j %d, -workers %d, check %s, mode %s\n",
		len(corpus), cfg.Generated, cfg.Seed, sizeName(cfg.Size), mix["mc"], mix["ll"],
		jobs, cfg.Workers, cfg.Check, mode)
	fmt.Printf("wall %v  cpu %v  %.2f entries/s  failures %d  degraded funcs %d\n",
		elapsed.Round(time.Millisecond), cpu.Round(time.Millisecond),
		float64(len(corpus))/elapsed.Seconds(), failures, degraded)
	fmt.Printf("per function: %.0f ns  %.0f allocs  %.0f B  (%d functions)\n",
		nsPerFunc, allocsPerFunc, bytesPerFunc, funcs)
	fmt.Printf("mean dynamic memory-op improvement: %.1f%%\n", mean)

	stageRows := report.SumStageTimings(outcomes...)
	if cfg.Timings {
		fmt.Println()
		fmt.Print(report.FormatStageTimings(stageRows))
	}

	if cfg.JSONPath != "" {
		rec := batchRecord{
			SchemaVersion:  report.SchemaVersion,
			Entries:        len(corpus),
			Generated:      cfg.Generated,
			Seed:           cfg.Seed,
			Size:           sizeName(cfg.Size),
			Mix:            mix,
			Jobs:           jobs,
			Workers:        cfg.Workers,
			Check:          cfg.Check.String(),
			Legacy:         cfg.Legacy,
			ElapsedMS:      float64(elapsed.Microseconds()) / 1000,
			CPUMS:          float64(cpu.Microseconds()) / 1000,
			EntriesPerSec:  float64(len(corpus)) / elapsed.Seconds(),
			Functions:      funcs,
			NsPerFunction:  nsPerFunc,
			AllocsPerFunc:  allocsPerFunc,
			AllocBytesPerF: bytesPerFunc,
			Failures:       failures,
			DegradedFuncs:  degraded,
			MeanImprovePct: mean,
		}
		rec.Stages = report.StageTimingsMS(stageRows)
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.JSONPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", cfg.JSONPath)
	}

	if failures > 0 {
		return fmt.Errorf("batch: %d of %d entries failed", failures, len(corpus))
	}
	return nil
}

// sizeName canonicalizes the empty size to its meaning.
func sizeName(s string) string {
	if s == "" {
		return "medium"
	}
	return s
}

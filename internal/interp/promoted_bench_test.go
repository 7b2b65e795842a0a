package interp_test

import (
	"fmt"
	"testing"

	"repro/internal/alias"
	"repro/internal/cfg"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irimport"
	"repro/internal/pipeline"
	"repro/internal/source"
	"repro/internal/workload"
)

// pipelineRuns holds the two programs a default pipeline run
// interprets: the unpromoted program of its training run and the
// promoted program of its measure-after run, with their step counts.
type pipelineRuns struct {
	name                   string
	train, promoted        *ir.Program
	trainSteps, afterSteps int64
}

// preparePipelineRuns runs the pipeline on each workload and rebuilds
// its training program (compiled, alias-analyzed and normalized, as
// the pipeline prepares it). A rebuilt program whose run takes another
// step count than the pipeline's training run is an error, so callers
// time and test the very runs the pipeline makes.
func preparePipelineRuns(ws []workload.Workload) ([]pipelineRuns, error) {
	var runs []pipelineRuns
	for _, w := range ws {
		out, err := pipeline.Run(w.Src, pipeline.Options{Lang: w.Lang})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		train, err := normalizedProgram(w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		res, err := interp.Run(train, interp.Options{CollectProfile: true})
		if err != nil {
			return nil, fmt.Errorf("%s: rebuilt training run: %w", w.Name, err)
		}
		if res.Steps != out.Before.Steps {
			return nil, fmt.Errorf("%s: rebuilt training run takes %d steps, the pipeline's %d", w.Name, res.Steps, out.Before.Steps)
		}
		runs = append(runs, pipelineRuns{w.Name, train, out.Prog, out.Before.Steps, out.After.Steps})
	}
	return runs, nil
}

// normalizedProgram compiles w, analyzes aliases and normalizes every
// function.
func normalizedProgram(w workload.Workload) (*ir.Program, error) {
	var prog *ir.Program
	var err error
	if w.Lang == irimport.LangIR {
		prog, err = irimport.Compile(w.Src)
	} else {
		prog, err = source.Compile(w.Src)
	}
	if err != nil {
		return nil, err
	}
	if err := alias.Analyze(prog); err != nil {
		return nil, err
	}
	for _, f := range prog.Funcs {
		if _, err := cfg.Normalize(f); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// suiteRuns prepares the suite and imported-suite programs.
func suiteRuns(b *testing.B) []pipelineRuns {
	runs, err := preparePipelineRuns(append(workload.Suite(), workload.ImportedSuite()...))
	if err != nil {
		b.Fatal(err)
	}
	return runs
}

// benchEngine times the engine alone running each program once per
// iteration, compile included, and reports ns/step: the engine's cost
// per executed IR instruction.
func benchEngine(b *testing.B, progs []*ir.Program, steps int64, opts interp.Options) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			if _, err := interp.Run(p, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*steps), "ns/step")
}

// BenchmarkInterpPromoted runs the engine alone on the promoted suite
// and imported-suite programs, as the pipeline's measure-after run
// does; promotion happens once, before the timer starts, so neither the
// frontend nor the promoter shows in the figure.
func BenchmarkInterpPromoted(b *testing.B) {
	var progs []*ir.Program
	steps := int64(0)
	for _, r := range suiteRuns(b) {
		progs = append(progs, r.promoted)
		steps += r.afterSteps
	}
	benchEngine(b, progs, steps, interp.Options{})
}

// BenchmarkInterpTrain runs the engine alone on the unpromoted suite
// and imported-suite programs with a profile, as the pipeline's
// training run does.
func BenchmarkInterpTrain(b *testing.B) {
	var progs []*ir.Program
	steps := int64(0)
	for _, r := range suiteRuns(b) {
		progs = append(progs, r.train)
		steps += r.trainSteps
	}
	benchEngine(b, progs, steps, interp.Options{CollectProfile: true})
}

// BenchmarkCompileBytecode compiles, without running, the 128 first
// medium corpus programs of seed 1 in both forms a default pipeline run
// interprets: the unpromoted training program and the promoted one.
// One iteration compiles every function of all 256 programs once.
func BenchmarkCompileBytecode(b *testing.B) {
	runs, err := preparePipelineRuns(workload.Corpus(1, 128))
	if err != nil {
		b.Fatal(err)
	}
	var progs []*ir.Program
	for _, r := range runs {
		progs = append(progs, r.train, r.promoted)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			interp.CompileAll(p)
		}
	}
}

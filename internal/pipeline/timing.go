package pipeline

import "time"

// StageTiming is the measured wall-clock duration of one stage
// execution. Per-function stages carry the function name; whole-program
// stages leave it empty. The pipeline records one entry per runStage
// call, so a run over a program with N functions produces roughly
// N entries per per-function stage plus one per whole-program stage.
type StageTiming struct {
	// Stage is the pipeline stage that was timed (see Stages).
	Stage string
	// Func is the function being transformed, or "" for whole-program
	// stages.
	Func string
	// Wall is the stage body's wall-clock duration, including any
	// boundary checks the configured CheckLevel adds.
	Wall time.Duration
}

// stageOrder maps each stage name to its position in execution order,
// for the canonical order of timings.
var stageOrder = func() map[string]int {
	m := make(map[string]int, len(Stages()))
	for i, s := range Stages() {
		m[s] = i
	}
	return m
}()

// StageWall aggregates the outcome's timings into total wall time per
// stage. Map iteration order is not defined; render through
// report.SumStageTimings (or sort by Stages order) for stable output.
func (o *Outcome) StageWall() map[string]time.Duration {
	m := make(map[string]time.Duration, len(stageOrder))
	for _, t := range o.Timings {
		m[t.Stage] += t.Wall
	}
	return m
}

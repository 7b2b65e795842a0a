package report

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/pipeline"
)

// StageTime is the aggregated wall time of one pipeline stage across a
// set of runs.
type StageTime struct {
	// Stage is the pipeline stage name (see pipeline.Stages).
	Stage string
	// Wall is the summed wall-clock time of every execution of the
	// stage.
	Wall time.Duration
	// Count is how many times the stage executed (per-function stages
	// run once per function per compile).
	Count int
}

// SumStageTimings merges the per-stage wall time of any number of
// outcomes into one row per stage, in pipeline execution order. Stages
// that never ran are omitted.
func SumStageTimings(outcomes ...*pipeline.Outcome) []StageTime {
	wall := make(map[string]time.Duration)
	count := make(map[string]int)
	for _, out := range outcomes {
		if out == nil {
			continue
		}
		for _, t := range out.Timings {
			wall[t.Stage] += t.Wall
			count[t.Stage]++
		}
	}
	var rows []StageTime
	for _, stage := range pipeline.Stages() {
		if count[stage] == 0 {
			continue
		}
		rows = append(rows, StageTime{Stage: stage, Wall: wall[stage], Count: count[stage]})
	}
	return rows
}

// StageMS is the stable JSON shape of one aggregated stage-timing row
// in the serving layer's response payloads (wall time in milliseconds
// so the rows are directly plottable).
type StageMS struct {
	Stage  string  `json:"stage"`
	WallMS float64 `json:"wall_ms"`
	Count  int     `json:"count"`
}

// StageTimingsMS converts SumStageTimings rows into their JSON shape.
func StageTimingsMS(rows []StageTime) []StageMS {
	out := make([]StageMS, len(rows))
	for i, r := range rows {
		out[i] = StageMS{
			Stage:  r.Stage,
			WallMS: float64(r.Wall.Microseconds()) / 1000,
			Count:  r.Count,
		}
	}
	return out
}

// FormatStageTimings renders the per-stage wall time table with each
// stage's share of the total.
func FormatStageTimings(rows []StageTime) string {
	var total time.Duration
	for _, r := range rows {
		total += r.Wall
	}
	var sb strings.Builder
	sb.WriteString("Per-stage wall time\n")
	fmt.Fprintf(&sb, "%-16s %12s %8s %7s\n", "stage", "wall", "count", "share")
	for _, r := range rows {
		share := 0.0
		if total > 0 {
			share = float64(r.Wall) / float64(total) * 100
		}
		fmt.Fprintf(&sb, "%-16s %12s %8d %6.1f%%\n",
			r.Stage, r.Wall.Round(time.Microsecond), r.Count, share)
	}
	fmt.Fprintf(&sb, "%-16s %12s\n", "total", total.Round(time.Microsecond))
	return sb.String()
}

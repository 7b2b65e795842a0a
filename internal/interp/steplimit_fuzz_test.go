package interp_test

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/interp"
	"repro/internal/workload"
)

// fuzzRuns holds the programs FuzzBytecodeStepLimit draws from: the
// suite, the imported suite and the first entries of the seed-1
// corpus, each unpromoted and promoted. They are prepared once per
// process; interpretation never mutates a program.
var fuzzRuns = sync.OnceValues(func() ([]pipelineRuns, error) {
	return preparePipelineRuns(append(append(workload.Suite(), workload.ImportedSuite()...), workload.Corpus(1, 8)...))
})

// FuzzBytecodeStepLimit runs a program drawn from fuzzRuns, promoted or
// not, under a step limit between 1 and two past its full run, on the
// engine and on the reference. They must agree on failure, on the
// error's class and text, and on every Result field.
func FuzzBytecodeStepLimit(f *testing.F) {
	for _, seed := range []struct {
		pick     uint
		promoted bool
		max      int64
	}{{0, true, 1 << 20}, {8, false, 1}, {8, true, 57}, {9, false, 1 << 40}, {10, true, 9999}, {11, false, 777}, {12, true, 31}} {
		f.Add(seed.pick, seed.promoted, seed.max)
	}
	f.Fuzz(func(t *testing.T, pick uint, promoted bool, max int64) {
		runs, err := fuzzRuns()
		if err != nil {
			t.Fatal(err)
		}
		r := runs[pick%uint(len(runs))]
		prog, full := r.train, r.trainSteps
		if promoted {
			prog, full = r.promoted, r.afterSteps
		}
		limit := 1 + int64(uint64(max)%uint64(full+2))
		eng, eerr := interp.Run(prog, interp.Options{MaxSteps: limit, CollectProfile: true})
		ref, rerr := interp.Run(prog, interp.Options{MaxSteps: limit, CollectProfile: true, Legacy: true})
		if (eerr == nil) != (rerr == nil) || errors.Is(eerr, interp.ErrStepLimit) != errors.Is(rerr, interp.ErrStepLimit) {
			t.Fatalf("%s (promoted %v), MaxSteps %d of %d: engine error %v, reference error %v", r.name, promoted, limit, full, eerr, rerr)
		}
		if eerr != nil {
			if eerr.Error() != rerr.Error() || eng != nil || ref != nil {
				t.Fatalf("%s (promoted %v), MaxSteps %d: engine %q, reference %q", r.name, promoted, limit, eerr, rerr)
			}
			return
		}
		if !reflect.DeepEqual(eng, ref) {
			t.Fatalf("%s (promoted %v), MaxSteps %d: results differ", r.name, promoted, limit)
		}
	})
}

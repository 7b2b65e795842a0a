package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/interp"
	"repro/internal/irimport"
	"repro/internal/source"
	"repro/internal/workload"
)

// program is one input the benchmark hands to the system under test.
type program struct {
	Name string
	Src  string
	Lang string // "" for mini-C, irimport.LangIR for textual IR
}

func fromWorkload(w workload.Workload) program {
	return program{Name: w.Name, Src: w.Src, Lang: w.Lang}
}

// funcs counts the functions a program defines, from its text. Mini-C
// functions are the unindented lines that open a body; IR functions are
// the define lines.
func (p program) funcs() int {
	n := 0
	for _, line := range strings.Split(p.Src, "\n") {
		if p.Lang == irimport.LangIR {
			if strings.HasPrefix(line, "define ") {
				n++
			}
		} else if line != "" && line[0] != '\t' && line[0] != ' ' && strings.HasSuffix(line, "{") && strings.Contains(line, "(") {
			n++
		}
	}
	return n
}

// batchCorpus returns the programs of a batch workload, at most limit of
// them when limit is positive. The suite is the same for every seed;
// gen-static is drawn from the seed.
func batchCorpus(name string, seed int64, limit int) ([]program, error) {
	var ps []program
	switch name {
	case wSuite:
		for _, w := range workload.Suite() {
			ps = append(ps, fromWorkload(w))
		}
		for _, w := range workload.ImportedSuite() {
			ps = append(ps, fromWorkload(w))
		}
	case wGenStatic:
		var err error
		if ps, err = genStaticCorpus(seed); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%s is not a batch workload", name)
	}
	if limit > 0 && len(ps) > limit {
		ps = ps[:limit]
	}
	return ps, nil
}

// banded draws perBand programs for each of bands bands: gen(i) returns
// candidate i and its band (outside [0, bands) for none), and the
// candidate is kept if its band still has room. It returns the programs
// in candidate order, so they depend on the seed only, and the number of
// candidates it drew.
func banded(bands, perBand int, gen func(i int) (program, int, error)) ([]program, int, error) {
	fill := make([]int, bands)
	want := bands * perBand
	var ps []program
	i := 0
	for ; len(ps) < want; i++ {
		if i > 100*want {
			return nil, i, fmt.Errorf("only %d of %d programs after %d candidates", len(ps), want, i)
		}
		p, band, err := gen(i)
		if err != nil {
			return nil, i, err
		}
		if band < 0 || band >= bands || fill[band] == perBand {
			continue
		}
		fill[band]++
		ps = append(ps, p)
	}
	return ps, i, nil
}

// genStaticCorpus draws genPerBand programs for each of genBands
// equal-width size bands between genMinBytes and genMaxBytes.
func genStaticCorpus(seed int64) ([]program, error) {
	width := (genMaxBytes - genMinBytes) / genBands
	ps, _, err := banded(genBands, genPerBand, func(i int) (program, int, error) {
		cfg, err := workload.SizedGenConfig(workload.DeriveSeed(seed, i), "large")
		if err != nil {
			return program{}, 0, err
		}
		cfg.LoopMax = genLoopMax
		src := workload.Generate(cfg)
		if len(src) < genMinBytes {
			return program{}, -1, nil
		}
		return program{Name: fmt.Sprintf("gen%04d", i), Src: src}, (len(src) - genMinBytes) / width, nil
	})
	if err != nil {
		return nil, fmt.Errorf("gen-static: %w", err)
	}
	return ps, nil
}

// hotCorpus returns serve-hot's distinct programs: small generated
// programs with imported IR every hotIREvery-th entry.
func hotCorpus(seed int64) ([]program, error) {
	ws, err := workload.ReplayCorpusMix(seed, serveSpecs[wServeHot].corpus, serveSpecs[wServeHot].size, hotIREvery)
	if err != nil {
		return nil, err
	}
	ps := make([]program, len(ws))
	for i, w := range ws {
		ps[i] = fromWorkload(w)
	}
	return ps, nil
}

// coldProgram returns serve-cold's i-th candidate program.
func coldProgram(seed int64, i int) (program, error) {
	w, err := workload.SizedCorpusEntry(seed, i, serveSpecs[wServeCold].size)
	if err != nil {
		return program{}, err
	}
	return fromWorkload(w), nil
}

// coldCorpus draws serve-cold's fixed-rate programs, coldPerBand from
// each band of estimated work between consecutive coldBandEdges, and
// returns them with the number of candidates drawn; the ladder's programs
// are the candidates after those.
func coldCorpus(seed int64) ([]program, int, error) {
	ps, next, err := banded(len(coldBandEdges)-1, coldPerBand, func(i int) (program, int, error) {
		p, err := coldProgram(seed, i)
		if err != nil {
			return p, 0, err
		}
		prog, err := source.Compile(p.Src)
		if err != nil {
			return p, 0, fmt.Errorf("%s: %w", p.Name, err)
		}
		r, err := interp.Run(prog, interp.Options{MaxSteps: refMaxSteps})
		if err != nil {
			return p, 0, fmt.Errorf("%s: %w", p.Name, err)
		}
		work := int64(len(p.Src)) + r.Steps/coldStepsPerByte
		return p, sort.Search(len(coldBandEdges), func(k int) bool { return coldBandEdges[k] > work }) - 1, nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("serve-cold: %w", err)
	}
	return ps, next, nil
}

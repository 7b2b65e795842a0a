package cfg

import (
	"repro/internal/bitset"
	"repro/internal/ir"
)

// DomFrontiers holds each block's dominance frontier, indexed by
// ir.BlockID. The zero value is empty; pass DomFrontiers by value (it
// is two words).
type DomFrontiers struct {
	f  *ir.Function
	of [][]*ir.Block
}

// Of returns the dominance frontier of b (nil for unreachable blocks or
// blocks created after the analysis was built).
func (d DomFrontiers) Of(b *ir.Block) []*ir.Block {
	if int(b.ID) >= len(d.of) {
		return nil
	}
	return d.of[b.ID]
}

// Func returns the function the frontiers were built for.
func (d DomFrontiers) Func() *ir.Function { return d.f }

// Valid reports whether the frontiers were actually built (the zero
// value is not valid). Callers accepting an optional DomFrontiers use
// this to distinguish "not supplied" from "supplied but empty".
func (d DomFrontiers) Valid() bool { return d.f != nil }

// BuildDomFrontiers computes dominance frontiers with the Cytron et al.
// two-pointer walk: for every join block b, each predecessor p and every
// dominator of p up to (but excluding) idom(b) has b in its frontier.
func BuildDomFrontiers(t *DomTree) DomFrontiers {
	df := DomFrontiers{f: t.f, of: make([][]*ir.Block, int(t.f.BlockIDBound()))}
	for _, b := range t.RPO() {
		if len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			if t.RPOIndex(p) < 0 {
				continue
			}
			for runner := p; runner != t.Idom(b); runner = t.Idom(runner) {
				// The join b is fixed while its preds are walked, so a
				// duplicate can only be the most recent append.
				fr := df.of[runner.ID]
				if n := len(fr); n == 0 || fr[n-1] != b {
					df.of[runner.ID] = append(fr, b)
				}
			}
		}
	}
	return df
}

// IteratedDF returns the iterated dominance frontier of the given set of
// definition blocks: the fixed point DF+(S) used for phi placement. It
// is IDF.Of on fresh scratch; a caller that places phis for many sets
// keeps an IDF instead.
func IteratedDF(df DomFrontiers, defs []*ir.Block) []*ir.Block {
	return new(IDF).Of(df, defs)
}

// IDF computes iterated dominance frontiers on scratch it reuses from
// call to call: two sparse block sets, the worklist and the result. The
// zero IDF is ready to use. An IDF is not safe for concurrent use.
type IDF struct {
	inResult, queued *bitset.Sparse
	work, result     []*ir.Block
}

// Of returns the iterated dominance frontier of defs under df. The
// worklist formulation processes every definition site in one pass,
// which is the batch usage the paper's incremental SSA update calls for
// (one IDF computation for all cloned definitions, standing in for the
// Sreedhar–Gao linear-time placement it cites). Blocks come out in the
// order the worklist first reaches them, which sets the order phis are
// inserted in. The result aliases the scratch: it is valid until the
// next call.
func (s *IDF) Of(df DomFrontiers, defs []*ir.Block) []*ir.Block {
	if len(defs) == 0 {
		return nil
	}
	if bound := len(df.of); s.queued == nil || s.queued.Cap() < bound {
		s.inResult, s.queued = bitset.NewSparse(bound), bitset.NewSparse(bound)
	}
	s.inResult.Reset()
	s.queued.Reset()
	s.work, s.result = s.work[:0], s.result[:0]
	for _, d := range defs {
		if s.queued.Add(int(d.ID)) {
			s.work = append(s.work, d)
		}
	}
	for len(s.work) > 0 {
		b := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		for _, fb := range df.Of(b) {
			if s.inResult.Add(int(fb.ID)) {
				s.result = append(s.result, fb)
				if s.queued.Add(int(fb.ID)) {
					s.work = append(s.work, fb)
				}
			}
		}
	}
	return s.result
}

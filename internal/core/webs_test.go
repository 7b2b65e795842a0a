package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/alias"
	"repro/internal/cfg"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/source"
	"repro/internal/ssa"
	"repro/internal/workload"
)

// prep compiles to SSA and returns a promoter ready for white-box
// inspection of web construction and planning. The profile is measured
// by a training run on the normalized pre-SSA program, matching the
// real pipeline (the static estimator cannot see cold branches).
func prep(t *testing.T, src string) (*promoter, *cfg.Forest) {
	t.Helper()
	prog, err := source.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := alias.Analyze(prog); err != nil {
		t.Fatal(err)
	}
	var forests []*cfg.Forest
	for _, fn := range prog.Funcs {
		forest, err := cfg.Normalize(fn)
		if err != nil {
			t.Fatal(err)
		}
		if fn.Name == "main" {
			forests = append(forests, forest)
		}
	}
	res, err := interp.Run(prog, interp.Options{CollectProfile: true})
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func("main")
	forest := forests[0]
	if _, err := ssa.Build(f); err != nil {
		t.Fatal(err)
	}
	p := &promoter{
		f:      f,
		forest: forest,
		config: Config{Profile: res.Profile.ForFunc("main"), CountTailStores: true},
		stats:  &Stats{},
	}
	p.dom = cfg.BuildDomTree(f)
	p.df = cfg.BuildDomFrontiers(p.dom)
	return p, forest
}

// websOfBase filters webs in the interval to one base name.
func websOfBase(p *promoter, iv *cfg.Interval, name string) []*web {
	var out []*web
	for _, w := range p.constructSSAWebs(iv) {
		if p.f.Res(w.base).Name == name {
			out = append(out, w)
		}
	}
	return out
}

// TestWebsSplitAtCalls reproduces the paper's section 4.2 example: in
// straight-line code `x = ..; foo(); bar();` the versions of x form
// three separate webs, each an independent promotion unit.
func TestWebsSplitAtCalls(t *testing.T) {
	p, forest := prep(t, `
int x;
int sink;
void foo() { sink += x; }
void bar() { sink *= x; }
void main() {
	x = 1;
	foo();
	bar();
}
`)
	webs := websOfBase(p, forest.Root, "x")
	if len(webs) < 3 {
		t.Fatalf("straight-line call-split produced %d webs, want >= 3", len(webs))
	}
	// No phis anywhere, so every web is a singleton class.
	for _, w := range webs {
		if len(w.memPhis) != 0 {
			t.Errorf("web has phis in phi-free code")
		}
		if len(w.resources) != 1 {
			t.Errorf("web spans %d versions without phis", len(w.resources))
		}
	}
}

// TestWebsJoinThroughPhis: inside a loop, the header phi unions the
// live-in version, the store version, and itself into one web.
func TestWebsJoinThroughPhis(t *testing.T) {
	p, forest := prep(t, `
int x;
void main() {
	int i;
	for (i = 0; i < 10; i++) x++;
	print(x);
}
`)
	var loop *cfg.Interval
	forest.Root.Walk(func(iv *cfg.Interval) {
		if !iv.Root {
			loop = iv
		}
	})
	webs := websOfBase(p, loop, "x")
	if len(webs) != 1 {
		t.Fatalf("loop produced %d webs for x, want 1", len(webs))
	}
	w := webs[0]
	if len(w.memPhis) != 1 {
		t.Errorf("web has %d phis, want the header phi", len(w.memPhis))
	}
	if len(w.loads) != 1 || len(w.stores) != 1 {
		t.Errorf("web refs: %d loads, %d stores; want 1 and 1", len(w.loads), len(w.stores))
	}
	// resources: live-in, phi target, store version.
	if len(w.resources) != 3 {
		t.Errorf("web spans %d versions, want 3", len(w.resources))
	}
}

// TestPlanLoadsAddedLeaves: the plan places a load exactly at each
// non-store leaf of the web's phi structure.
func TestPlanLoadsAddedLeaves(t *testing.T) {
	p, forest := prep(t, `
int x;
int sink;
void foo() { sink += x; }
void main() {
	int i;
	for (i = 0; i < 100; i++) {
		x++;
		if (x == 500) foo();
	}
	print(x);
}
`)
	var loop *cfg.Interval
	forest.Root.Walk(func(iv *cfg.Interval) {
		if !iv.Root && loop == nil {
			loop = iv
		}
	})
	webs := websOfBase(p, loop, "x")
	if len(webs) != 1 {
		t.Fatalf("webs = %d, want 1", len(webs))
	}
	plan := p.planWeb(loop, webs[0])

	// Leaves: the live-in version (load in the preheader) and the
	// call-defined version (reload on the call path).
	if len(plan.loadsAdded) != 2 {
		t.Fatalf("loads-added = %d sites, want 2", len(plan.loadsAdded))
	}
	sawPreheader, sawCallPath := false, false
	for _, ref := range plan.loadsAdded {
		res := p.f.Res(ref.res)
		if res.Version == 0 {
			sawPreheader = true
			if ref.at.Parent != loop.Preheader {
				t.Errorf("live-in load placed in %v, want preheader %v", ref.at.Parent, loop.Preheader)
			}
		} else {
			sawCallPath = true
		}
	}
	if !sawPreheader || !sawCallPath {
		t.Errorf("leaf classification wrong: preheader=%v callpath=%v", sawPreheader, sawCallPath)
	}

	// The store feeds the call path: one compensation store planned
	// (plus none at the hot back edge beyond it).
	if len(plan.storesAdded) == 0 {
		t.Error("no stores-added despite an aliased load in the web")
	}
	// Tail store for the live-out value.
	if len(plan.tailStores) != 1 {
		t.Errorf("tail stores = %d, want 1", len(plan.tailStores))
	}
	if !plan.removeStores {
		t.Error("cold call path: store removal should be profitable")
	}
}

// TestPlanLiveInDetection: the unique live-in version is the one
// defined outside the interval.
func TestPlanLiveIn(t *testing.T) {
	p, forest := prep(t, `
int x;
void main() {
	x = 41;
	int i;
	for (i = 0; i < 10; i++) x++;
	print(x);
}
`)
	var loop *cfg.Interval
	forest.Root.Walk(func(iv *cfg.Interval) {
		if !iv.Root {
			loop = iv
		}
	})
	webs := websOfBase(p, loop, "x")
	plan := p.planWeb(loop, webs[0])
	if plan.liveIn == ir.NoResource {
		t.Fatal("no live-in found")
	}
	res := p.f.Res(plan.liveIn)
	// The live-in is the version the pre-loop store defined — defined
	// outside the loop, used inside via the header phi.
	if def := p.def(plan.liveIn); def != nil {
		t.Errorf("live-in %s is defined inside the interval", res)
	}
}

// TestPruneDominatedStores: a store insertion point dominated by
// another for the same resource is dropped.
func TestPruneDominatedStores(t *testing.T) {
	p, _ := prep(t, `
int x;
void main() {
	x = 1;
	print(x);
}
`)
	f := p.f
	// Fabricate two insertion points in the same block: the earlier
	// dominates the later.
	entry := f.Entry()
	first := entry.Instrs[0]
	last := entry.Term()
	refs := []plannedRef{
		{res: 1, at: last},
		{res: 1, at: first},
		{res: 2, at: last}, // different resource: kept
	}
	kept := p.pruneDominatedStores(refs)
	if len(kept) != 2 {
		t.Fatalf("kept %d refs, want 2: %+v", len(kept), kept)
	}
	for _, r := range kept {
		if r.res == 1 && r.at != first {
			t.Error("kept the dominated insertion point")
		}
	}
}

// TestWebsDeterministic: web construction yields the same order across
// runs (maps must not leak iteration order).
func TestWebsDeterministic(t *testing.T) {
	src := `
int a; int b; int c;
void main() {
	int i;
	for (i = 0; i < 10; i++) { a++; b += a; c = c ^ b; }
	print(a + b + c);
}
`
	shape := func() []string {
		p, forest := prep(t, src)
		var loop *cfg.Interval
		forest.Root.Walk(func(iv *cfg.Interval) {
			if !iv.Root {
				loop = iv
			}
		})
		var names []string
		for _, w := range p.constructSSAWebs(loop) {
			names = append(names, p.f.Res(w.base).Name)
		}
		return names
	}
	a := shape()
	for try := 0; try < 5; try++ {
		b := shape()
		if len(a) != len(b) {
			t.Fatalf("web count varies: %v vs %v", a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("web order varies: %v vs %v", a, b)
			}
		}
	}
}

// rescanLiveOut is the full-function rescan the usedOutside index
// replaces: the web versions defined inside the interval by one of the
// web's stores or memphis that some instruction outside the interval
// uses.
func rescanLiveOut(f *ir.Function, iv *cfg.Interval, w *web) map[ir.ResourceID]bool {
	inWeb := make(map[ir.ResourceID]bool)
	for _, r := range w.resources {
		inWeb[r] = true
	}
	defined := make(map[ir.ResourceID]bool)
	for _, in := range w.stores {
		defined[in.MemDefs[0].Res] = true
	}
	for _, in := range w.memPhis {
		defined[in.MemDefs[0].Res] = true
	}
	out := make(map[ir.ResourceID]bool)
	for _, b := range f.Blocks {
		if iv.Contains(b) {
			continue
		}
		for _, in := range b.Instrs {
			for _, u := range in.MemUses {
				if inWeb[u.Res] && defined[u.Res] {
					out[u.Res] = true
				}
			}
		}
	}
	return out
}

// TestUsedOutsideIndexMatchesRescan replays promotion's interval walk
// and checks, before each web is promoted, that the live-out set the
// interval's usedOutside index gives equals a full-function rescan, and
// that the plan made before any web of the interval was promoted equals
// a fresh one. Both indexes are built once per interval, so promoting
// the interval's earlier webs must leave them exact.
func TestUsedOutsideIndexMatchesRescan(t *testing.T) {
	srcs := map[string]string{}
	for _, w := range workload.Suite() {
		srcs[w.Name] = w.Src
	}
	for _, seed := range []int64{1, 7} {
		for i := 0; i < 3; i++ {
			gen, err := workload.SizedGenConfig(workload.DeriveSeed(seed, i), "large")
			if err != nil {
				t.Fatal(err)
			}
			gen.LoopMax = 3
			srcs[fmt.Sprintf("gen-%d-%d", seed, i)] = workload.Generate(gen)
		}
	}
	checked, liveOuts := 0, 0
	for name, src := range srcs {
		prog, err := source.Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := alias.Analyze(prog); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range prog.Funcs {
			forest, err := cfg.Normalize(f)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, f.Name, err)
			}
			prof := profile.Estimate(f, forest)
			if _, err := ssa.Build(f); err != nil {
				t.Fatalf("%s/%s: %v", name, f.Name, err)
			}
			p := &promoter{
				f:      f,
				forest: forest,
				config: Config{Profile: prof, CountTailStores: true},
				stats:  &Stats{},
			}
			p.dom = cfg.BuildDomTree(f)
			p.df = cfg.BuildDomFrontiers(p.dom)
			forest.Root.Walk(func(iv *cfg.Interval) {
				if iv.Root {
					return
				}
				webs := p.constructSSAWebs(iv)
				plans := make([]*webPlan, len(webs))
				for i, w := range webs {
					plans[i] = p.planWeb(iv, w)
				}
				for i, w := range webs {
					want := rescanLiveOut(f, iv, w)
					liveOuts += len(want)
					for _, r := range w.resources {
						if got := p.liveOut(w, r); got != want[r] {
							t.Errorf("%s/%s: %s live-out: index %v, rescan %v", name, f.Name, f.Res(r), got, want[r])
						}
					}
					fresh := p.planWeb(iv, w)
					if fresh.liveIn != plans[i].liveIn || fresh.profit() != plans[i].profit() ||
						!reflect.DeepEqual(fresh.loadsAdded, plans[i].loadsAdded) ||
						!reflect.DeepEqual(fresh.storesAdded, plans[i].storesAdded) ||
						!reflect.DeepEqual(fresh.tailStores, plans[i].tailStores) {
						t.Errorf("%s/%s: plan of web %d changed after earlier webs were promoted", name, f.Name, i)
					}
					if err := p.promoteInWeb(iv, w, plans[i]); err != nil {
						t.Fatalf("%s/%s: %v", name, f.Name, err)
					}
					checked++
				}
			})
		}
	}
	if checked == 0 || liveOuts == 0 {
		t.Fatalf("vacuous: %d webs checked, %d live-out versions", checked, liveOuts)
	}
	t.Logf("%d webs checked, %d live-out versions", checked, liveOuts)
}

// TestPromoterReuseMatchesFresh promotes every interval of a function
// with one promoter, whose dense web and plan indexes carry over from
// interval to interval, and checks each interval against a fresh
// promoter on an identical compile: the webs, the plans and the
// promoted code must match, and planWeb must leave its marks cleared.
func TestPromoterReuseMatchesFresh(t *testing.T) {
	srcs := map[string]string{}
	for _, w := range workload.Suite() {
		srcs[w.Name] = w.Src
	}
	for i, w := range workload.Corpus(1, 8) {
		srcs[fmt.Sprintf("gen-%d", i)] = w.Src
	}
	build := func(name, src string) []*ir.Function {
		prog, err := source.Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := alias.Analyze(prog); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return prog.Funcs
	}
	prepare := func(f *ir.Function) (*promoter, []*cfg.Interval) {
		forest, err := cfg.Normalize(f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		prof := profile.Estimate(f, forest)
		if _, err := ssa.Build(f); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		p := &promoter{f: f, forest: forest, config: Config{Profile: prof, CountTailStores: true}, stats: &Stats{}}
		p.dom = cfg.BuildDomTree(f)
		p.df = cfg.BuildDomFrontiers(p.dom)
		var ivs []*cfg.Interval
		forest.Root.Walk(func(iv *cfg.Interval) {
			if !iv.Root {
				ivs = append(ivs, iv)
			}
		})
		return p, ivs
	}
	intervals, webs := 0, 0
	for name, src := range srcs {
		reused, fresh := build(name, src), build(name, src)
		for fi, fa := range reused {
			fb := fresh[fi]
			pa, ivsA := prepare(fa)
			_, ivsB := prepare(fb)
			for k, ivA := range ivsA {
				ivB := ivsB[k]
				// Profiles are indexed by block ID, which the compiles share.
				pb := &promoter{f: fb, config: pa.config, stats: &Stats{}}
				pb.dom = cfg.BuildDomTree(fb)
				pb.df = cfg.BuildDomFrontiers(pb.dom)
				websA, websB := pa.constructSSAWebs(ivA), pb.constructSSAWebs(ivB)
				where := fmt.Sprintf("%s/%s interval %d", name, fa.Name, k)
				if len(websA) != len(websB) {
					t.Fatalf("%s: %d webs with a reused promoter, %d fresh", where, len(websA), len(websB))
				}
				for r := range fa.Resources {
					da, db := pa.def(ir.ResourceID(r)), pb.def(ir.ResourceID(r))
					if (da == nil) != (db == nil) || (da != nil && da.String() != db.String()) ||
						(pa.webOf[r] == nil) != (pb.webOf[r] == nil) || pa.usedOutside[r] != pb.usedOutside[r] || pa.parent[r] != pb.parent[r] {
						t.Fatalf("%s: the reused promoter's index of %s differs from a fresh one's", where, fa.Res(ir.ResourceID(r)))
					}
				}
				plansA := make([]*webPlan, len(websA))
				for i := range websA {
					plansA[i] = pa.planWeb(ivA, websA[i])
					planB := pb.planWeb(ivB, websB[i])
					if a, b := describeWeb(pa, websA[i], plansA[i]), describeWeb(pb, websB[i], planB); a != b {
						t.Fatalf("%s web %d:\nreused: %s\nfresh:  %s", where, i, a, b)
					}
					for r := range pa.depends {
						if pa.depends[r] || pa.loadSeen[r] || pa.storeSeen[r] {
							t.Fatalf("%s web %d: planWeb left a mark on %s", where, i, fa.Res(ir.ResourceID(r)))
						}
					}
				}
				for i := range websA {
					if err := pa.promoteInWeb(ivA, websA[i], plansA[i]); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if err := pb.promoteInWeb(ivB, websB[i], pb.planWeb(ivB, websB[i])); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
				}
				if fa.String() != fb.String() {
					t.Fatalf("%s: promoted code differs between the reused and the fresh promoter", where)
				}
				intervals++
				webs += len(websA)
			}
		}
	}
	if intervals < 50 || webs < 100 {
		t.Fatalf("vacuous: %d intervals, %d webs", intervals, webs)
	}
	t.Logf("%d intervals, %d webs matched", intervals, webs)
}

// describeWeb renders a web and its plan by resource IDs and printed
// instructions, which identical compiles share.
func describeWeb(p *promoter, w *web, pl *webPlan) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "base %d versions %v defs %d loads %d stores %d aliased %d/%d phis %d liveIn %d",
		w.base, w.resources, w.numDefs, len(w.loads), len(w.stores), len(w.aliasedLoads), len(w.aliasedDefs), len(w.memPhis), pl.liveIn)
	for _, r := range w.resources {
		fmt.Fprintf(&sb, " [%d def=%v store=%v phi=%v out=%v]", r, p.def(r), p.definedByStore(r), p.definedByPhi(r) != nil, p.liveOut(w, r))
	}
	for _, ref := range pl.loadsAdded {
		fmt.Fprintf(&sb, " load %d@b%d:%s", ref.res, ref.at.Parent.ID, ref.at)
	}
	for _, ref := range pl.storesAdded {
		fmt.Fprintf(&sb, " store %d@b%d:%s", ref.res, ref.at.Parent.ID, ref.at)
	}
	for _, ts := range pl.tailStores {
		fmt.Fprintf(&sb, " tail %d@b%d", ts.res, ts.tail.ID)
	}
	fmt.Fprintf(&sb, " profit %v/%v remove %v", pl.loadProfit, pl.storeProfit, pl.removeStores)
	return sb.String()
}

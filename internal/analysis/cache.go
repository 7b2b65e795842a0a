// Package analysis memoizes a function's dominator tree and dominance
// frontiers, keyed on ir.Function.CFGVersion, and counts the builds.
//
// It serves only the layer walk of the benchmark harness (bench/), which
// records a span per analysis build and reports the counts as
// analysis.builds.*. The pipeline builds its dominator tree once per
// transform chain and does not use this package. The package goes
// together with the next change that may edit bench/.
package analysis

import (
	"maps"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// Kind names one analysis, for the build counts.
type Kind string

// The analysis kinds the bench walk reports. Only dom and df are ever
// built; the other three always count zero.
const (
	KindDom       Kind = "dom"
	KindDF        Kind = "df"
	KindIntervals Kind = "intervals"
	KindRPO       Kind = "rpo"
	KindCode      Kind = "code"
)

// Cache memoizes the dominator tree and frontiers per function, keyed
// on the CFG version. It is not safe for concurrent use: the bench walk
// makes one per program run.
type Cache struct {
	entries map[*ir.Function]*entry
	builds  map[Kind]int
}

// entry is the cache line of one function: each analysis with the CFG
// version it was built at.
type entry struct {
	domVersion uint64
	dom        *cfg.DomTree

	dfVersion uint64
	df        cfg.DomFrontiers
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{entries: make(map[*ir.Function]*entry), builds: make(map[Kind]int)}
}

func (c *Cache) entryFor(f *ir.Function) *entry {
	e := c.entries[f]
	if e == nil {
		e = &entry{}
		c.entries[f] = e
	}
	return e
}

// Dom returns the dominator tree of f, rebuilding only if the CFG
// version moved since the last build.
func (c *Cache) Dom(f *ir.Function) *cfg.DomTree {
	e, v := c.entryFor(f), f.CFGVersion()
	if e.dom == nil || e.domVersion != v {
		e.dom, e.domVersion = cfg.BuildDomTree(f), v
		c.builds[KindDom]++
	}
	return e.dom
}

// DF returns the dominance frontiers of f, building the dominator tree
// as needed.
func (c *Cache) DF(f *ir.Function) cfg.DomFrontiers {
	dom := c.Dom(f)
	e, v := c.entryFor(f), f.CFGVersion()
	if !e.df.Valid() || e.dfVersion != v {
		e.df, e.dfVersion = cfg.BuildDomFrontiers(dom), v
		c.builds[KindDF]++
	}
	return e.df
}

// PutIntervals accepts the interval forest cfg.Normalize returned for
// f. Nothing reads intervals back, so it is not stored.
func (c *Cache) PutIntervals(f *ir.Function, fo *cfg.Forest) {}

// TotalBuilds returns the number of builds per analysis kind.
func (c *Cache) TotalBuilds() map[Kind]int {
	return maps.Clone(c.builds)
}

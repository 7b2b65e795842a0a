package report

import (
	"sort"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// SchemaVersion is the version stamped into every machine-readable
// record the promoter's tools emit: the serving layer's outcome payloads
// (rpserved) and the rpbench -oracle and -pressure-bench records. Bump
// it whenever a field changes meaning or shape, so downstream consumers
// can reject records they do not understand instead of misreading them.
const SchemaVersion = 1

// StatsJSON is the stable JSON shape of one function's (or the
// program-total) promotion statistics.
type StatsJSON struct {
	WebsConsidered  int `json:"webs_considered"`
	WebsPromoted    int `json:"webs_promoted"`
	WebsLoadOnly    int `json:"webs_load_only"`
	WebsRejected    int `json:"webs_rejected"`
	LoadsReplaced   int `json:"loads_replaced"`
	StoresDeleted   int `json:"stores_deleted"`
	LoadsInserted   int `json:"loads_inserted"`
	StoresInserted  int `json:"stores_inserted"`
	DummyLoadsAdded int `json:"dummy_loads_added"`
}

// FuncStatsJSON pairs a function name with its promotion statistics.
type FuncStatsJSON struct {
	Name string `json:"name"`
	StatsJSON
}

// StaticJSON is the static singleton memory-operation counts before and
// after promotion (the paper's Table 1 metric).
type StaticJSON struct {
	LoadsBefore  int `json:"loads_before"`
	LoadsAfter   int `json:"loads_after"`
	StoresBefore int `json:"stores_before"`
	StoresAfter  int `json:"stores_after"`
}

// DynJSON is one measurement run's dynamic memory-operation counts
// (the paper's Table 2 metric).
type DynJSON struct {
	Loads  int64 `json:"loads"`
	Stores int64 `json:"stores"`
}

// DegradationJSON records one function the pipeline compiled without
// promotion because a stage failed on it.
type DegradationJSON struct {
	Func  string `json:"func"`
	Stage string `json:"stage"`
	Error string `json:"error"`
}

// GlobalJSON is one global's final memory image after the measurement
// run.
type GlobalJSON struct {
	Name   string  `json:"name"`
	Values []int64 `json:"values"`
}

// OutcomeJSON is the stable, versioned JSON encoding of a
// pipeline.Outcome, written by the promotion service and read by its
// clients (the serving drills, the benchmark). Every slice is in canonical
// order (function declaration order comes pre-canonicalized from the
// pipeline; stats and globals sort by name here), and wall-clock
// timings are deliberately excluded, so two runs over the same
// (source, options) — at any worker count — marshal to byte-identical
// JSON. The serving layer's cache determinism checks rely on that.
type OutcomeJSON struct {
	SchemaVersion int               `json:"schema_version"`
	Static        StaticJSON        `json:"static"`
	Funcs         []FuncStatsJSON   `json:"funcs,omitempty"`
	Total         StatsJSON         `json:"total"`
	Degraded      []DegradationJSON `json:"degraded,omitempty"`
	DynBefore     *DynJSON          `json:"dyn_before,omitempty"`
	DynAfter      *DynJSON          `json:"dyn_after,omitempty"`
	Output        []int64           `json:"output,omitempty"`
	ReturnValue   *int64            `json:"return_value,omitempty"`
	Globals       []GlobalJSON      `json:"globals,omitempty"`
}

// EncodeOutcome converts a pipeline outcome into its stable JSON shape.
func EncodeOutcome(out *pipeline.Outcome) OutcomeJSON {
	enc := OutcomeJSON{
		SchemaVersion: SchemaVersion,
		Static: StaticJSON{
			LoadsBefore:  out.StaticBefore.Loads,
			LoadsAfter:   out.StaticAfter.Loads,
			StoresBefore: out.StaticBefore.Stores,
			StoresAfter:  out.StaticAfter.Stores,
		},
		Total: statsJSON(out.TotalStats),
	}

	names := make([]string, 0, len(out.Stats))
	for name := range out.Stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		enc.Funcs = append(enc.Funcs, FuncStatsJSON{Name: name, StatsJSON: statsJSON(*out.Stats[name])})
	}

	for _, d := range out.Degraded {
		enc.Degraded = append(enc.Degraded, DegradationJSON{
			Func:  d.Func,
			Stage: d.Stage,
			Error: d.Err.Error(),
		})
	}

	if out.Before != nil {
		enc.DynBefore = &DynJSON{Loads: out.Before.DynLoads(), Stores: out.Before.DynStores()}
	}
	if out.After != nil {
		enc.DynAfter = &DynJSON{Loads: out.After.DynLoads(), Stores: out.After.DynStores()}
		enc.Output = out.After.Output
		ret := out.After.ReturnValue
		enc.ReturnValue = &ret
		globals := make([]string, 0, len(out.After.Globals))
		for name := range out.After.Globals {
			globals = append(globals, name)
		}
		sort.Strings(globals)
		for _, name := range globals {
			enc.Globals = append(enc.Globals, GlobalJSON{Name: name, Values: out.After.Globals[name]})
		}
	}
	return enc
}

func statsJSON(s core.Stats) StatsJSON {
	return StatsJSON{
		WebsConsidered:  s.WebsConsidered,
		WebsPromoted:    s.WebsPromoted,
		WebsLoadOnly:    s.WebsLoadOnly,
		WebsRejected:    s.WebsRejected,
		LoadsReplaced:   s.LoadsReplaced,
		StoresDeleted:   s.StoresDeleted,
		LoadsInserted:   s.LoadsInserted,
		StoresInserted:  s.StoresInserted,
		DummyLoadsAdded: s.DummyLoadsAdded,
	}
}

package pipeline

import (
	"fmt"
	"sort"
	"strings"
)

// Report renders a canonical, deterministic summary of the outcome:
// static counts, per-function promotion statistics (sorted by function
// name), degradations (canonical order, stage and function only — no
// stacks), and the measured runs' observable behavior (output, return
// value, final global memory in sorted order). Two Runs over the same
// source with the same options produce byte-identical reports — the
// determinism tests compare this string. Timings are deliberately
// excluded: wall time is the one thing that legitimately differs
// between runs.
func (o *Outcome) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "static loads %d -> %d stores %d -> %d\n",
		o.StaticBefore.Loads, o.StaticAfter.Loads,
		o.StaticBefore.Stores, o.StaticAfter.Stores)

	names := make([]string, 0, len(o.Stats))
	for name := range o.Stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := o.Stats[name]
		fmt.Fprintf(&sb, "func %s: considered=%d promoted=%d loadonly=%d rejected=%d "+
			"loads(repl=%d ins=%d) stores(del=%d ins=%d) dummy=%d\n",
			name, s.WebsConsidered, s.WebsPromoted, s.WebsLoadOnly, s.WebsRejected,
			s.LoadsReplaced, s.LoadsInserted, s.StoresDeleted, s.StoresInserted,
			s.DummyLoadsAdded)
	}
	t := o.TotalStats
	fmt.Fprintf(&sb, "total: considered=%d promoted=%d loadonly=%d rejected=%d "+
		"loads(repl=%d ins=%d) stores(del=%d ins=%d)\n",
		t.WebsConsidered, t.WebsPromoted, t.WebsLoadOnly, t.WebsRejected,
		t.LoadsReplaced, t.LoadsInserted, t.StoresDeleted, t.StoresInserted)

	for _, d := range o.Degraded {
		fmt.Fprintf(&sb, "degraded %s at %s\n", d.Func, d.Stage)
	}

	if o.Before != nil {
		fmt.Fprintf(&sb, "dyn before: loads=%d stores=%d\n", o.Before.DynLoads(), o.Before.DynStores())
	}
	if o.After != nil {
		fmt.Fprintf(&sb, "dyn after: loads=%d stores=%d\n", o.After.DynLoads(), o.After.DynStores())
		fmt.Fprintf(&sb, "output: %v return: %d\n", o.After.Output, o.After.ReturnValue)
		globals := make([]string, 0, len(o.After.Globals))
		for name := range o.After.Globals {
			globals = append(globals, name)
		}
		sort.Strings(globals)
		for _, name := range globals {
			fmt.Fprintf(&sb, "global %s: %v\n", name, o.After.Globals[name])
		}
	}
	return sb.String()
}

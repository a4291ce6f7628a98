package bind

import (
	"repro/internal/hgraph"
	"repro/internal/spec"
)

// FindMinLatency searches for the feasible binding minimizing the total
// mapped execution latency — the refinement step the paper's Section 4
// motivates ("first explore different optimal solutions ..., and
// subsequently select and refine one of those solutions"): once an
// allocation is chosen from the flexibility/cost front, each behaviour
// can be re-bound for speed within the same resources.
//
// The search is branch-and-bound over the same compiled constraint
// model, binding order and node accounting as Find; the lower bound
// adds each unbound process's cheapest candidate latency, and the first
// optimum found wins ties. It returns the optimum (nil Binding if
// infeasible).
func FindMinLatency(s *spec.Spec, fp *hgraph.FlatGraph, av *spec.ArchView, opts Options) (*Result, bool) {
	in, v := compileOneOff(s, fp, av)
	sol, ok := in.search(v, opts, true)
	return in.result(sol, ok), ok
}

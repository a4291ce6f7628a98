// Package bind solves the binding problem of the paper: assign every
// activated leaf of the (flattened) problem graph to exactly one
// allocated resource via a mapping edge, such that every data
// dependence can be handled (both endpoints on one resource, or an
// activated architecture link/bus connects the two resources), and such
// that the timing estimate accepts every resource's load.
//
// Binding is NP-complete (the paper cites [2]); this package implements
// a backtracking search with minimum-remaining-values ordering and
// incremental constraint propagation, which is exact and fast at the
// scale of platform specifications.
package bind

import (
	"fmt"
	"sort"

	"repro/internal/hgraph"
	"repro/internal/sched"
	"repro/internal/spec"
)

// Binding is a timed binding β(t) for one behaviour (one elementary
// cluster activation): it maps every activated process to the resource
// implementing it, i.e. it identifies the activated mapping edges.
type Binding map[hgraph.ID]hgraph.ID

// Clone returns a copy of the binding.
func (b Binding) Clone() Binding {
	c := make(Binding, len(b))
	for k, v := range b {
		c[k] = v
	}
	return c
}

// String renders the binding deterministically.
func (b Binding) String() string {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	out := "{"
	for i, k := range keys {
		if i > 0 {
			out += " "
		}
		out += k + "->" + string(b[hgraph.ID(k)])
	}
	return out + "}"
}

// TimingPolicy selects the performance test applied to each resource's
// task set.
type TimingPolicy int

// Timing policies.
const (
	// TimingPaper is the paper's test: utilization ≤ 69 %.
	TimingPaper TimingPolicy = iota
	// TimingNone disables the performance check (pure binding
	// feasibility, as in the paper's "possible resource allocation"
	// stage).
	TimingNone
	// TimingLiuLayland applies the exact bound n(2^(1/n)−1).
	TimingLiuLayland
	// TimingRTA applies exact response-time analysis.
	TimingRTA
	// TimingEDF applies the exact EDF bound U ≤ 1 — what an
	// earliest-deadline-first runtime could admit on each resource.
	TimingEDF
	// TimingHyperbolic applies Bini's hyperbolic bound Π(U_i+1) ≤ 2,
	// which dominates the Liu–Layland bound while staying sufficient.
	TimingHyperbolic
)

// String implements fmt.Stringer.
func (p TimingPolicy) String() string {
	switch p {
	case TimingPaper:
		return "paper-69%"
	case TimingNone:
		return "none"
	case TimingLiuLayland:
		return "liu-layland"
	case TimingRTA:
		return "rta"
	case TimingEDF:
		return "edf"
	case TimingHyperbolic:
		return "hyperbolic"
	default:
		return fmt.Sprintf("TimingPolicy(%d)", int(p))
	}
}

func (p TimingPolicy) test(tasks []sched.Task) bool {
	switch p {
	case TimingNone:
		return true
	case TimingLiuLayland:
		return sched.LiuLaylandTest(tasks)
	case TimingRTA:
		return sched.RTATest(tasks)
	case TimingEDF:
		return sched.EDFTest(tasks)
	case TimingHyperbolic:
		return sched.HyperbolicTest(tasks)
	default:
		return sched.PaperTest(tasks)
	}
}

// Options configures the solver.
type Options struct {
	Timing TimingPolicy
	// MaxNodes bounds the number of search nodes (0 = unbounded). When
	// the bound is hit the search reports infeasible-with-timeout.
	MaxNodes int
}

// Result carries the solution and search statistics.
type Result struct {
	Binding Binding
	// Nodes is the number of assignments tried (search effort).
	Nodes int
	// Truncated reports that MaxNodes stopped the search before it
	// could prove infeasibility.
	Truncated bool
}

// Find searches for a feasible timed binding of the flattened problem
// graph fp onto the architecture view av. It returns the result and
// whether a feasible binding exists. Processes without any mapping edge
// to a present resource make the instance trivially infeasible.
//
// The search is a backtracking search over the compiled instance (see
// Instance.Solve): processes are bound most-constrained first, ties by
// ID, each onto its present mapping targets in resource-ID order; a
// candidate must communicate with every bound neighbour and keep its
// resource's load within the timing policy. Find compiles a one-off
// instance and view; callers binding one flattening many times should
// Compile once instead.
func Find(s *spec.Spec, fp *hgraph.FlatGraph, av *spec.ArchView, opts Options) (*Result, bool) {
	in, v := compileOneOff(s, fp, av)
	sol, ok := in.Solve(v, opts)
	return in.result(sol, ok), ok
}

// compileOneOff compiles fp and av over the present resources some
// process of fp maps onto — the only resources a binding onto av can
// use.
func compileOneOff(s *spec.Spec, fp *hgraph.FlatGraph, av *spec.ArchView) (*Instance, *View) {
	ix := make(oneOff, 0, 8)
	for _, v := range fp.Vertices {
		for _, m := range s.MappingsFor(v.ID) {
			if _, ok := ix.Index(m.Resource); !ok && av.Present(m.Resource) {
				ix = append(ix, m.Resource)
			}
		}
	}
	return compile(s, fp, &ix), viewOf(av, &ix)
}

// oneOff numbers the resources of one call in first-seen order: the
// search never depends on the numbering, and a handful of resources is
// found faster by a scan than by sorting them and building a map.
type oneOff []hgraph.ID

func (ix *oneOff) Len() int           { return len(*ix) }
func (ix *oneOff) At(i int) hgraph.ID { return (*ix)[i] }

func (ix *oneOff) Index(id hgraph.ID) (int, bool) {
	for i, x := range *ix {
		if x == id {
			return i, true
		}
	}
	return 0, false
}

// result converts a dense search outcome into a Result.
func (in *Instance) result(sol Solution, ok bool) *Result {
	res := &Result{Nodes: sol.Nodes, Truncated: sol.Truncated}
	if ok {
		res.Binding = in.Binding(sol.Assign)
	}
	return res
}

// Check verifies a complete binding against the paper's feasibility
// rules and the timing policy; it reports the first violation found.
// It is the library's independent validator (the solver constructs only
// bindings that pass it).
func Check(s *spec.Spec, fp *hgraph.FlatGraph, av *spec.ArchView, b Binding, opts Options) error {
	in, v := compileOneOff(s, fp, av)
	// Rule 2 for the map form: each activated leaf, and only those, has
	// a binding; Instance.Check verifies the rest.
	assign := make([]int32, len(fp.Vertices))
	for i, fv := range fp.Vertices {
		r, ok := b[fv.ID]
		if !ok {
			return fmt.Errorf("bind: process %q unbound", fv.ID)
		}
		ri, ok := in.rix.Index(r)
		if !ok {
			if s.Mapping(fv.ID, r) == nil {
				return fmt.Errorf("bind: no mapping edge %q=>%q", fv.ID, r)
			}
			return fmt.Errorf("bind: resource %q not activated", r)
		}
		assign[i] = int32(ri)
	}
	for p := range b {
		if fp.VertexByID(p) == nil {
			return fmt.Errorf("bind: binding for inactive process %q", p)
		}
	}
	return in.Check(v, assign, opts)
}

// TotalLatency sums the mapped execution latencies of a binding — a
// simple secondary metric used by examples and benchmarks.
func TotalLatency(s *spec.Spec, b Binding) float64 {
	procs := make([]hgraph.ID, 0, len(b))
	for p := range b {
		procs = append(procs, p)
	}
	// Sum in process order: float addition is not associative, and map
	// order would make the last bits vary between runs.
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	total := 0.0
	for _, p := range procs {
		if m := s.Mapping(p, b[p]); m != nil {
			total += m.Latency
		}
	}
	return total
}

package core

import (
	"context"
	"math"

	"repro/internal/bind"
	"repro/internal/pareto"
	"repro/internal/spec"
)

// Objective is one minimized criterion evaluated on an implementation.
// The paper's Section 4 motivates more than two objectives ("execution
// time, cost, area, power consumption, weight, etc."); ExploreMulti
// generalizes the flexibility/cost exploration to any objective vector.
type Objective struct {
	Name string
	// Eval extracts the minimized value.
	Eval func(s *spec.Spec, im *Implementation) float64
	// LowerBound, if non-nil, bounds the best achievable value for any
	// implementation of the given allocation, whose flexibility
	// estimate under the run's options is est; used for dominance
	// pruning. A nil LowerBound contributes 0 (no pruning power).
	LowerBound func(s *spec.Spec, a spec.Allocation, est float64) float64
}

// CostObjective minimizes the allocation cost.
func CostObjective() Objective {
	return Objective{
		Name: "cost",
		Eval: func(s *spec.Spec, im *Implementation) float64 { return im.Cost },
		LowerBound: func(s *spec.Spec, a spec.Allocation, _ float64) float64 {
			return a.Cost(s)
		},
	}
}

// InvFlexibilityObjective minimizes 1/flexibility (the paper's second
// criterion).
func InvFlexibilityObjective() Objective {
	return Objective{
		Name: "1/flexibility",
		Eval: func(s *spec.Spec, im *Implementation) float64 {
			if im.Flexibility <= 0 {
				return math.Inf(1)
			}
			return 1 / im.Flexibility
		},
		LowerBound: func(s *spec.Spec, a spec.Allocation, est float64) float64 {
			if est <= 0 {
				return math.Inf(1)
			}
			return 1 / est
		},
	}
}

// MeanLatencyObjective minimizes the mean, over implemented behaviours,
// of the latency-optimal total execution time — the refinement
// criterion: a platform that is flexible *and* fast.
func MeanLatencyObjective() Objective {
	return Objective{
		Name: "mean-latency",
		Eval: func(s *spec.Spec, im *Implementation) float64 {
			if len(im.Behaviours) == 0 {
				return math.Inf(1)
			}
			total := 0.0
			for _, beh := range im.Behaviours {
				fp, err := s.Problem.Flatten(beh.ECS.Selection)
				if err != nil {
					return math.Inf(1)
				}
				av, err := s.ArchViewFor(im.Allocation, beh.ArchSelection)
				if err != nil {
					return math.Inf(1)
				}
				best, ok := bind.FindMinLatency(s, fp, av, bind.Options{Timing: bind.TimingPaper})
				if !ok {
					return math.Inf(1)
				}
				total += bind.TotalLatency(s, best.Binding)
			}
			return total / float64(len(im.Behaviours))
		},
	}
}

// ResourceSumObjective minimizes the sum of a numeric attribute (e.g. a
// "power" annotation) over the allocated resources.
func ResourceSumObjective(attr string) Objective {
	sum := func(s *spec.Spec, a spec.Allocation) float64 {
		total := 0.0
		for _, r := range a.Resources(s) {
			if v := s.Arch.VertexByID(r); v != nil {
				total += v.Attrs.GetDefault(attr, 0)
			}
		}
		return total
	}
	return Objective{
		Name: attr,
		Eval: func(s *spec.Spec, im *Implementation) float64 {
			return sum(s, im.Allocation)
		},
		LowerBound: func(s *spec.Spec, a spec.Allocation, _ float64) float64 {
			return sum(s, a)
		},
	}
}

// MultiResult is the outcome of a multi-objective exploration.
type MultiResult struct {
	// Front holds the non-dominated implementations with their
	// objective vectors (parallel slices, sorted lexicographically by
	// vector).
	Front      []*Implementation
	Objectives [][]float64
	Names      []string
	// Interrupted/Reason/Cursor carry the anytime-termination state,
	// with the same semantics as Result: an interrupted front is the
	// exact non-dominated set of the explored cost-ordered prefix.
	Interrupted bool
	Reason      Reason
	Cursor      int
	Stats       Stats
}

// ExploreMulti explores the possible resource allocations under an
// arbitrary objective vector. Candidates still arrive in nondecreasing
// cost; a candidate is pruned when its best-case vector (per-objective
// lower bounds) is already dominated or matched by an archived point.
// With exactly {CostObjective, InvFlexibilityObjective} the result
// coincides with Explore (property-tested), but the pruning is weaker
// than EXPLORE's scalar bound, which exploits the cost ordering.
func ExploreMulti(s *spec.Spec, opts Options, objectives []Objective) *MultiResult {
	return ExploreMultiContext(context.Background(), s, opts, objectives)
}

// ExploreMultiContext is ExploreMulti under a context: cancellation or
// deadline expiry stops the cost-ordered scan cleanly and returns the
// best-so-far front with Interrupted set and Cursor at the first
// unevaluated candidate.
func ExploreMultiContext(ctx context.Context, s *spec.Spec, opts Options, objectives []Objective) *MultiResult {
	if len(objectives) == 0 {
		objectives = []Objective{CostObjective(), InvFlexibilityObjective()}
	}
	sc := newScan(ctx, s, opts)
	pol := &multiPolicy{s: s, objectives: objectives, best: make([]float64, len(objectives))}
	sc.run(nil, pol)
	res := &MultiResult{Interrupted: sc.Interrupted, Reason: sc.Reason, Cursor: sc.Cursor, Stats: sc.Stats}
	for _, o := range objectives {
		res.Names = append(res.Names, o.Name)
	}
	for _, e := range pol.front.Entries() {
		res.Front = append(res.Front, e.Value.(*Implementation))
		res.Objectives = append(res.Objectives, e.Objectives)
	}
	return res
}

// multiPolicy prunes a candidate when its best-case objective vector
// (the per-objective lower bounds) is already dominated or matched by
// an archived point.
type multiPolicy struct {
	s          *spec.Spec
	objectives []Objective
	front      pareto.Front
	// best is the lower-bound vector, reused across candidates.
	best []float64
}

func (p *multiPolicy) prune(a spec.Allocation, est float64) bool {
	for i, o := range p.objectives {
		p.best[i] = 0
		if o.LowerBound != nil {
			p.best[i] = o.LowerBound(p.s, a, est)
		}
	}
	return p.front.DominatesPoint(p.best)
}

func (p *multiPolicy) fold(im *Implementation) (feasible, stop bool) {
	if im == nil {
		return false, false
	}
	vec := make([]float64, len(p.objectives))
	for i, o := range p.objectives {
		vec[i] = o.Eval(p.s, im)
	}
	p.front.Add(&pareto.Entry{Objectives: vec, Value: im})
	return true, false
}

func (p *multiPolicy) archive() *pareto.Front { return &p.front }

package core

import (
	"math"
	"testing"

	"repro/internal/hgraph"
	"repro/internal/models"
	"repro/internal/pareto"
	"repro/internal/spec"
)

// TestExploreMultiDefaultMatchesExplore: with the paper's two
// objectives, the generalized explorer returns the same front values as
// EXPLORE — also under the weighted metric, where the dominance bound
// must use the run's (weighted) estimate.
func TestExploreMultiDefaultMatchesExplore(t *testing.T) {
	weighted := models.SetTopBox()
	for id, w := range map[hgraph.ID]float64{"gI": 1, "gD": 3, "gG": 5} {
		weighted.Problem.ClusterByID(id).Attrs = hgraph.Attrs{spec.AttrWeight: w}
	}
	for _, tc := range []struct {
		name string
		s    *spec.Spec
		opts Options
	}{
		{"settop", models.SetTopBox(), Options{}},
		{"weighted settop", weighted, Options{Weighted: true}},
	} {
		bi := Explore(tc.s, tc.opts)
		multi := ExploreMulti(tc.s, tc.opts, nil)
		if len(multi.Front) != len(bi.Front) {
			t.Fatalf("%s: front sizes differ: %d vs %d", tc.name, len(multi.Front), len(bi.Front))
		}
		for i := range bi.Front {
			if multi.Front[i].Cost != bi.Front[i].Cost ||
				multi.Front[i].Flexibility != bi.Front[i].Flexibility {
				t.Errorf("%s: row %d differs: (%v,%v) vs (%v,%v)", tc.name, i,
					multi.Front[i].Cost, multi.Front[i].Flexibility,
					bi.Front[i].Cost, bi.Front[i].Flexibility)
			}
		}
		if multi.Names[0] != "cost" || multi.Names[1] != "1/flexibility" {
			t.Errorf("%s: objective names = %v", tc.name, multi.Names)
		}
	}
}

// TestExploreMultiTriObjective adds mean optimal latency as a third
// criterion: every bi-objective Pareto point stays non-dominated, and
// at least one new point appears that buys speed with money (e.g. a
// faster ASIC).
func TestExploreMultiTriObjective(t *testing.T) {
	s := models.SetTopBox()
	objs := []Objective{CostObjective(), InvFlexibilityObjective(), MeanLatencyObjective()}
	multi := ExploreMulti(s, Options{AllBehaviours: true}, objs)
	bi := Explore(s, Options{AllBehaviours: true})

	if len(multi.Front) <= len(bi.Front) {
		t.Errorf("tri-objective front (%d) should exceed the bi-objective front (%d)",
			len(multi.Front), len(bi.Front))
	}
	// All bi-front (cost, f) pairs survive.
	for _, want := range bi.Front {
		found := false
		for _, im := range multi.Front {
			if im.Cost == want.Cost && im.Flexibility == want.Flexibility {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("bi-objective point (%v,%v) lost in tri-objective front", want.Cost, want.Flexibility)
		}
	}
	// Mutual non-dominance of the reported vectors.
	for i := range multi.Objectives {
		for j := range multi.Objectives {
			if i != j && pareto.Dominates(multi.Objectives[i], multi.Objectives[j]) {
				t.Errorf("front point %d dominates %d", i, j)
			}
		}
	}
	// No vector may be infinite (all points must have evaluable latency).
	for i, vec := range multi.Objectives {
		for _, v := range vec {
			if math.IsInf(v, 0) {
				t.Errorf("point %d has infinite objective: %v", i, vec)
			}
		}
	}
	// At least one extra point uses a faster ASIC (A2 or A3).
	extra := false
	for _, im := range multi.Front {
		if im.Allocation["A2"] || im.Allocation["A3"] {
			extra = true
		}
	}
	if !extra {
		t.Error("expected a latency-motivated point using A2/A3")
	}
}

// TestResourceSumObjective: a power annotation becomes a first-class
// criterion.
func TestResourceSumObjective(t *testing.T) {
	s := models.SetTopBox()
	power := map[hgraph.ID]float64{
		"uP1": 8, "uP2": 5, "A1": 20, "A2": 22, "A3": 25,
		"D3": 3, "U2": 3, "G1": 3,
		"C1": 1, "C2": 1, "C3": 1, "C4": 1, "C5": 1, "C6": 1,
	}
	for id, w := range power {
		v := s.Arch.VertexByID(id)
		if v.Attrs == nil {
			v.Attrs = hgraph.Attrs{}
		}
		v.Attrs["power"] = w
	}
	objs := []Objective{ResourceSumObjective("power"), InvFlexibilityObjective()}
	multi := ExploreMulti(s, Options{}, objs)
	if len(multi.Front) == 0 {
		t.Fatal("empty power/flexibility front")
	}
	// Lowest-power point: uP2 alone (5) with f=2.
	first := multi.Objectives[0]
	if first[0] != 5 || first[1] != 0.5 {
		t.Errorf("first point = %v, want (5, 0.5)", first)
	}
	// The f=8 point needs uP2+A1+D3+C1+C2 = 5+20+3+1+1 = 30.
	last := multi.Objectives[len(multi.Objectives)-1]
	if last[1] != 0.125 || last[0] != 30 {
		t.Errorf("last point = %v, want (30, 0.125)", last)
	}
}

// TestExploreMultiPruningSound: disabling the dominance pruning does
// not change the front.
func TestExploreMultiPruningSound(t *testing.T) {
	s := models.Decoder()
	objs := []Objective{CostObjective(), InvFlexibilityObjective()}
	with := ExploreMulti(s, Options{}, objs)
	without := ExploreMulti(s, Options{DisableFlexBound: true}, objs)
	if len(with.Front) != len(without.Front) {
		t.Fatalf("front sizes differ: %d vs %d", len(with.Front), len(without.Front))
	}
	for i := range with.Objectives {
		for k := range with.Objectives[i] {
			if with.Objectives[i][k] != without.Objectives[i][k] {
				t.Errorf("point %d differs", i)
			}
		}
	}
	if with.Stats.Attempted >= without.Stats.Attempted {
		t.Error("pruning should reduce attempts")
	}
}

func TestObjectiveOnEmptyBehaviours(t *testing.T) {
	s := models.SetTopBox()
	im := &Implementation{Allocation: spec.NewAllocation("uP2"), Cost: 100, Flexibility: 0}
	if got := MeanLatencyObjective().Eval(s, im); !math.IsInf(got, 1) {
		t.Errorf("latency of behaviour-less implementation = %v, want +Inf", got)
	}
	if got := InvFlexibilityObjective().Eval(s, im); !math.IsInf(got, 1) {
		t.Errorf("1/f of zero flexibility = %v, want +Inf", got)
	}
}

func BenchmarkExploreMultiTri(b *testing.B) {
	s := models.SetTopBox()
	objs := []Objective{CostObjective(), InvFlexibilityObjective(), MeanLatencyObjective()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ExploreMulti(s, Options{AllBehaviours: true}, objs)
		if len(r.Front) == 0 {
			b.Fatal("empty front")
		}
	}
}

// TestMeanLatencyObjectiveBitIdentical: the mean-latency objective sums
// fractional latencies; two runs must give bit-identical objective
// vectors, so ties pick the same fronts.
func TestMeanLatencyObjectiveBitIdentical(t *testing.T) {
	objs := []Objective{CostObjective(), InvFlexibilityObjective(), MeanLatencyObjective()}
	for seed := int64(1); seed <= 10; seed++ {
		s := models.Synthetic(models.ScaledSynthetic(seed, 12))
		first := ExploreMulti(s, Options{}, objs)
		again := ExploreMulti(s, Options{}, objs)
		if len(first.Objectives) != len(again.Objectives) {
			t.Fatalf("seed %d: front sizes %d vs %d", seed, len(first.Objectives), len(again.Objectives))
		}
		for i, vec := range first.Objectives {
			for k, x := range vec {
				if y := again.Objectives[i][k]; math.Float64bits(x) != math.Float64bits(y) {
					t.Fatalf("seed %d: row %d %s = %v then %v", seed, i, first.Names[k], x, y)
				}
			}
		}
	}
}

package bind

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/hgraph"
	"repro/internal/models"
	"repro/internal/spec"
)

var allPolicies = []TimingPolicy{
	TimingPaper, TimingNone, TimingLiuLayland, TimingRTA, TimingEDF, TimingHyperbolic,
}

// differentialSpecs are the inputs of the dense-versus-reference
// differential: the case studies and a few synthetic specifications.
func differentialSpecs() []*spec.Spec {
	out := []*spec.Spec{models.SetTopBox(), models.Decoder(), models.SDR()}
	for seed := int64(1); seed <= 5; seed++ {
		out = append(out, models.Synthetic(models.DefaultSynthetic(seed)))
	}
	return out
}

// sameResult reports whether two solver results agree on the binding,
// the node count and truncation.
func sameResult(a, b *Result) bool {
	return reflect.DeepEqual(a.Binding, b.Binding) && a.Nodes == b.Nodes && a.Truncated == b.Truncated
}

// TestKernelMatchesReference runs every problem flattening of each
// input against every architecture selection of the full allocation,
// restricted to seeded random present-resource subsets, under all six
// timing policies and MaxNodes 0, 1 and 3. Find and FindMinLatency —
// the one-off wrappers and the evaluator's path (Compile over the
// architecture's resource indexer, NewView over the flattening) — must
// reproduce the map-based reference: the same binding, node count and
// truncation. On seeded mutations of each found binding (one process
// rebound, one used resource dropped) the dense and the reference
// validators must agree on acceptance.
func TestKernelMatchesReference(t *testing.T) {
	for _, s := range differentialSpecs() {
		t.Run(s.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			var leaves []hgraph.ID
			full := spec.Allocation{}
			for _, v := range s.Arch.Leaves() {
				leaves = append(leaves, v.ID)
				full[v.ID] = true
			}
			for _, c := range s.Arch.Clusters() {
				full[c.ID] = true
			}
			rix := bitset.NewIndexer(leaves)
			var archSels []hgraph.Selection
			full.EnumerateArchSelections(s, func(sel hgraph.Selection) bool {
				archSels = append(archSels, sel.Clone())
				return true
			})
			var tl tally
			for _, psel := range s.Problem.Selections() {
				fp, err := s.Problem.Flatten(psel)
				if err != nil {
					continue
				}
				in := Compile(s, fp, rix)
				for _, asel := range archSels {
					fg, err := s.Arch.FlattenPartial(asel)
					if err != nil {
						t.Fatal(err)
					}
					for k := 0; k < 6; k++ {
						avail := map[hgraph.ID]bool{}
						for _, v := range fg.Vertices {
							if k == 0 || rng.Intn(4) > 0 {
								avail[v.ID] = true
							}
						}
						tl.instances++
						checkInstance(t, rng, s, fp, fg, asel, avail, in, rix, &tl)
					}
				}
			}
			// Guard against a vacuous run: both verdicts must occur.
			if tl.found == 0 || tl.infeasible == 0 || tl.accepted == 0 || tl.rejected == 0 {
				t.Fatalf("degenerate coverage: %+v", tl)
			}
		})
	}
}

// tally counts the differential's outcomes.
type tally struct {
	instances, found, infeasible, accepted, rejected int
}

// checkInstance compares dense and reference on one instance.
func checkInstance(t *testing.T, rng *rand.Rand, s *spec.Spec, fp, fg *hgraph.FlatGraph,
	asel hgraph.Selection, avail map[hgraph.ID]bool, in *Instance, rix *bitset.Indexer[hgraph.ID], tl *tally) {
	t.Helper()
	av, v := viewPair(s, fg, asel, avail, rix)
	for _, policy := range allPolicies {
		for _, maxNodes := range []int{0, 1, 3} {
			opts := Options{Timing: policy, MaxNodes: maxNodes}
			want, wok := refFind(s, fp, av, opts)
			got, ok := Find(s, fp, av, opts)
			sol, dok := in.Solve(v, opts)
			if ok != wok || !sameResult(got, want) {
				t.Fatalf("%s on %v %v, %+v: Find = %v %+v, reference %v %+v", fp.Name, asel, avail, opts, ok, got, wok, want)
			}
			if dense := in.result(sol, dok); dok != wok || !sameResult(dense, want) {
				t.Fatalf("%v %v, %+v: Solve = %v %+v, reference %v %+v", asel, avail, opts, dok, dense, wok, want)
			}

			wantMin, wok := refFindMinLatency(s, fp, av, opts)
			gotMin, ok := FindMinLatency(s, fp, av, opts)
			sol, dok = in.search(v, opts, true)
			if ok != wok || !sameResult(gotMin, wantMin) {
				t.Fatalf("%v %v, %+v: FindMinLatency = %v %+v, reference %v %+v", asel, avail, opts, ok, gotMin, wok, wantMin)
			}
			if dense := in.result(sol, dok); dok != wok || !sameResult(dense, wantMin) {
				t.Fatalf("%v %v, %+v: dense min-latency = %v %+v, reference %v %+v", asel, avail, opts, dok, dense, wok, wantMin)
			}

			if maxNodes > 0 {
				continue
			}
			if want.Binding == nil {
				tl.infeasible++
				continue
			}
			tl.found++
			checkMutations(t, rng, s, fp, fg, asel, avail, want.Binding, in, rix, opts, tl)
		}
	}
}

// viewPair builds the reference ArchView and the dense View of one
// architecture flattening restricted to avail.
func viewPair(s *spec.Spec, fg *hgraph.FlatGraph, asel hgraph.Selection, avail map[hgraph.ID]bool,
	rix *bitset.Indexer[hgraph.ID]) (*spec.ArchView, *View) {
	av := s.ArchViewFromFlat(fg, func(id hgraph.ID) bool { return avail[id] }, asel)
	present := bitset.New(rix.Len())
	for _, fv := range fg.Vertices {
		if i, ok := rix.Index(fv.ID); ok && avail[fv.ID] {
			present.Add(i)
		}
	}
	return av, NewView(s, fg, present, rix)
}

// checkMutations mutates a feasible binding and requires the three
// validators — reference, Check and Instance.Check — to agree.
func checkMutations(t *testing.T, rng *rand.Rand, s *spec.Spec, fp, fg *hgraph.FlatGraph,
	asel hgraph.Selection, avail map[hgraph.ID]bool, b Binding, in *Instance,
	rix *bitset.Indexer[hgraph.ID], opts Options, tl *tally) {
	t.Helper()
	agree := func(what string, b Binding, avail map[hgraph.ID]bool) {
		t.Helper()
		av, v := viewPair(s, fg, asel, avail, rix)
		want := refCheck(s, fp, av, b, opts) == nil
		if got := Check(s, fp, av, b, opts) == nil; got != want {
			t.Fatalf("%s %v: Check accepts %v, reference %v", what, b, got, want)
		}
		assign := make([]int32, len(fp.Vertices))
		for i, fv := range fp.Vertices {
			r, _ := rix.Index(b[fv.ID])
			assign[i] = int32(r)
		}
		if got := in.Check(v, assign, opts) == nil; got != want {
			t.Fatalf("%s %v: Instance.Check accepts %v, reference %v", what, b, got, want)
		}
		if want {
			tl.accepted++
		} else {
			tl.rejected++
		}
	}
	agree("found", b, avail)

	// Rebind one process: onto one of its mapping targets or onto any
	// resource at all.
	for k := 0; k < 2; k++ {
		p := fp.Vertices[rng.Intn(len(fp.Vertices))].ID
		mb := b.Clone()
		if ms := s.MappingsFor(p); k == 0 && len(ms) > 0 {
			mb[p] = ms[rng.Intn(len(ms))].Resource
		} else {
			mb[p] = rix.At(rng.Intn(rix.Len()))
		}
		agree("rebound", mb, avail)
	}

	// Drop one resource the binding uses.
	drop := b[fp.Vertices[rng.Intn(len(fp.Vertices))].ID]
	less := map[hgraph.ID]bool{}
	for id := range avail {
		if id != drop {
			less[id] = true
		}
	}
	agree("dropped "+string(drop), b, less)
}

// TestSolveConcurrent shares one compiled instance and view between
// goroutines, as the parallel explorer's workers do, and requires every
// search and check to give the sequential answer (run with -race).
func TestSolveConcurrent(t *testing.T) {
	s := buildFig2(t)
	fp, err := s.Problem.Flatten(hgraph.Selection{"IfD": "gD3", "IfU": "gU1"})
	if err != nil {
		t.Fatal(err)
	}
	var leaves []hgraph.ID
	for _, v := range s.Arch.Leaves() {
		leaves = append(leaves, v.ID)
	}
	rix := bitset.NewIndexer(leaves)
	fg, err := s.Arch.FlattenPartial(hgraph.Selection{"FPGA": "dD3"})
	if err != nil {
		t.Fatal(err)
	}
	present := rix.SetOf("uP", "A", "C1", "C2", "D3")
	in, v := Compile(s, fp, rix), NewView(s, fg, present, rix)
	want, ok := in.Solve(v, Options{})
	if !ok {
		t.Fatal("feasible binding exists (PD3 on D3, PU1 on uP)")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got, ok := in.Solve(v, Options{})
				if !ok || !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent Solve = %v %+v, want %+v", ok, got, want)
					return
				}
				if err := in.Check(v, got.Assign, Options{}); err != nil {
					t.Errorf("concurrent Check: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

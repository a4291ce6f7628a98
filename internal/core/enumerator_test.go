package core

import (
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/models"
	"repro/internal/spec"
)

// TestEnumeratorResolution pins the dispatch rule: explicit choices
// win, auto switches on the unit count, and any other value — the
// retired "auto" spelling included — panics instead of silently
// falling back.
func TestEnumeratorResolution(t *testing.T) {
	cases := []struct {
		e    Enumerator
		n    int
		want Enumerator
	}{
		{EnumeratorAuto, autoSymbolicUnits, EnumeratorBitset},
		{EnumeratorAuto, autoSymbolicUnits + 1, EnumeratorSymbolic},
		{EnumeratorBitset, 1000, EnumeratorBitset},
		{EnumeratorSymbolic, 1, EnumeratorSymbolic},
	}
	for _, tc := range cases {
		if got := (Options{Enumerator: tc.e}).enumeratorFor(tc.n); got != tc.want {
			t.Errorf("enumeratorFor(%q, %d) = %q, want %q", tc.e, tc.n, got, tc.want)
		}
	}
	for _, e := range []Enumerator{"bogus", "auto"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("enumeratorFor(%q) did not panic", e)
				}
			}()
			(Options{Enumerator: e}).enumeratorFor(5)
		}()
	}

	// The paper's case study must stay on the bitset scan under auto —
	// that is what keeps the seed's goldens and Scanned figures intact.
	if n := len(alloc.Units(models.SetTopBox())); n > autoSymbolicUnits {
		t.Errorf("set-top box has %d units, above the auto threshold %d", n, autoSymbolicUnits)
	}
}

// TestEnumeratorDifferentialGrid (acceptance): across specifications,
// worker counts, batch sizes, and resume splits, exploring with the
// symbolic enumerator returns bit-identical fronts, cursors, reasons
// and semantic counters to the bitset scan. CI runs this under -race.
//
// MaxScan is deliberately absent from the grid: it is an
// enumerator-specific effort budget (subsets scanned vs BDD nodes
// visited), so a budgeted run legitimately stops at different stream
// positions under the two producers.
func TestEnumeratorDifferentialGrid(t *testing.T) {
	synth := func(seed int64) *spec.Spec {
		return models.Synthetic(models.SyntheticParams{
			Seed: seed, Apps: 2, Depth: 1, Branch: 2, Vertices: 2,
			Processors: 2, ASICs: 2, Designs: 2, Buses: 3,
			TimedFraction: 0.3, AccelOnlyFraction: 0.3,
		})
	}
	specs := []struct {
		name string
		s    *spec.Spec
		opts Options
		// stopEarly marks runs that end before the scan is exhausted.
		// There a parallel producer legitimately enumerates ahead of the
		// stop decision still in flight, so PossibleAllocations may
		// overshoot the sequential baseline (see
		// TestPipelineDifferentialGrid); everything committed — fronts,
		// cursor, reason, evaluation counters — must still be identical.
		stopEarly bool
	}{
		{"settop", models.SetTopBox(), Options{}, false},
		{"decoder", models.Decoder(), Options{}, false},
		{"synth3", synth(3), Options{}, false},
		{"synth7-nobound", synth(7), Options{DisableFlexBound: true}, false},
		{"settop-stopmax", models.SetTopBox(), Options{StopAtMaxFlex: true}, true},
	}
	for _, tc := range specs {
		t.Run(tc.name, func(t *testing.T) {
			bitOpts := tc.opts
			bitOpts.Enumerator = EnumeratorBitset
			symOpts := tc.opts
			symOpts.Enumerator = EnumeratorSymbolic
			bit := Explore(tc.s, bitOpts)

			compare := func(label string, sym *Result) {
				t.Helper()
				sameFronts(t, bit, sym)
				if sym.Cursor != bit.Cursor {
					t.Errorf("%s: cursor %d != bitset %d", label, sym.Cursor, bit.Cursor)
				}
				if sym.Reason != bit.Reason {
					t.Errorf("%s: reason %q != bitset %q", label, sym.Reason, bit.Reason)
				}
				ss, bs := sym.Stats.Semantic(), bit.Stats.Semantic()
				if tc.stopEarly {
					if ss.PossibleAllocations < bs.PossibleAllocations {
						t.Errorf("%s: enumerated less than the sequential bitset run", label)
					}
					ss.PossibleAllocations, bs.PossibleAllocations = 0, 0
				}
				if !reflect.DeepEqual(ss, bs) {
					t.Errorf("%s: semantic stats diverge:\nsym: %+v\nbit: %+v", label, ss, bs)
				}
			}

			compare("sequential", Explore(tc.s, symOpts))
			for _, w := range []int{2, 4, 8} {
				for _, b := range []int{1, 64, 0} { // 0 = adaptive ramp
					opts := symOpts
					opts.Batch = b
					compare("parallel", ExploreParallel(tc.s, opts, w, 2*w))
				}
			}

			if tc.opts.StopAtMaxFlex {
				// The early-stop cursor depends only on the stream, which
				// the cases above already pin; the resume split below
				// needs the full scan.
				return
			}
			// Cross-enumerator resume: interrupt a bitset run mid-scan
			// and continue it symbolically (sequential and parallel).
			// The shared candidate stream makes the snapshot
			// interchangeable, cursor for cursor.
			k := bit.Stats.PossibleAllocations / 2
			if k == 0 {
				k = 1
			}
			part := cancelAt(tc.s, bitOpts, k)
			if !part.Interrupted || part.Cursor != k {
				t.Fatalf("interrupt failed: interrupted=%v cursor=%d", part.Interrupted, part.Cursor)
			}
			res := &Resume{Cursor: part.Cursor, Front: part.Front, Stats: part.Stats}
			resOpts := symOpts
			resOpts.Resume = res
			compare("resume-seq", Explore(tc.s, resOpts))
			compare("resume-par", ExploreParallel(tc.s, resOpts, 4, 8))
		})
	}
}

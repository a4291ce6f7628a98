package core

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/faultinject"
	"repro/internal/models"
	"repro/internal/pareto"
	"repro/internal/spec"
)

// prefixFront implements the first k possible candidates of the
// cost-ordered enumeration unconditionally and folds them into a Pareto
// front — the ground truth the anytime invariant is checked against:
// an exploration interrupted with Cursor == k must return exactly this
// front.
func prefixFront(s *spec.Spec, opts Options, k int) []*Implementation {
	return prefixFrontOf(s, nil, opts, k)
}

// prefixFrontOf is prefixFront over the cost-ordered extensions of
// base (nil: every possible allocation), folding only implementations
// more flexible than the base's own — the ground truth of Upgrade.
func prefixFrontOf(s *spec.Spec, base spec.Allocation, opts Options, k int) []*Implementation {
	floor := 0.0
	if base != nil {
		if im := Implement(s, base, opts, nil); im != nil {
			floor = im.Flexibility
		}
	}
	front := &pareto.Front{}
	idx := 0
	fold := func(c alloc.Candidate) bool {
		if idx >= k {
			return false
		}
		idx++
		if im := Implement(s, c.Allocation, opts, nil); im != nil && im.Flexibility > floor {
			front.Add(&pareto.Entry{
				Objectives: pareto.CostFlexObjectives(im.Cost, im.Flexibility),
				Value:      im,
			})
		}
		return true
	}
	ao := alloc.Options{IncludeUselessComm: opts.IncludeUselessComm, MaxScan: opts.MaxScan}
	if base != nil {
		alloc.EnumerateExtensions(s, base, ao, fold)
	} else {
		alloc.Enumerate(s, ao, fold)
	}
	return frontToImplementations(front)
}

// scanKind is one of the cost-ordered scans that share the sequential
// driver, seen through a Result: Explore, Upgrade of a deployed
// processor, and ExploreMulti under the paper's two objectives (whose
// front is Explore's).
type scanKind struct {
	name string
	run  func(ctx context.Context, s *spec.Spec, opts Options) *Result
	// base is the allocation the scan's candidates extend (nil: all).
	base func(s *spec.Spec) spec.Allocation
}

// upgradeBase is the deployed platform of the upgrade kind: the
// processor uP2, or uP on the decoder, which has only that one.
func upgradeBase(s *spec.Spec) spec.Allocation {
	if s.Arch.VertexByID("uP2") != nil {
		return spec.NewAllocation("uP2")
	}
	return spec.NewAllocation("uP")
}

var scanKinds = []scanKind{
	{"explore", ExploreContext, func(*spec.Spec) spec.Allocation { return nil }},
	{"upgrade", func(ctx context.Context, s *spec.Spec, opts Options) *Result {
		return UpgradeContext(ctx, s, upgradeBase(s), opts)
	}, upgradeBase},
	{"multi", func(ctx context.Context, s *spec.Spec, opts Options) *Result {
		m := ExploreMultiContext(ctx, s, opts, nil)
		return &Result{Front: m.Front, Interrupted: m.Interrupted, Reason: m.Reason, Cursor: m.Cursor, Stats: m.Stats}
	}, func(*spec.Spec) spec.Allocation { return nil }},
}

// cancelAt runs ExploreContext with a fault-injected cancellation at
// candidate index k — the deterministic stand-in for SIGINT/deadline.
func cancelAt(s *spec.Spec, opts Options, k int) *Result {
	return scanKinds[0].cancelAt(s, opts, k)
}

// cancelAt runs the scan with a fault-injected cancellation at
// candidate index k.
func (kind scanKind) cancelAt(s *spec.Spec, opts Options, k int) *Result {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts.Fault = faultinject.New().CancelAt(SiteEstimate, k).Bind(cancel)
	return kind.run(ctx, s, opts)
}

func frontsEqual(a, b []*Implementation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Cost != b[i].Cost || a[i].Flexibility != b[i].Flexibility ||
			!a[i].Allocation.Equal(b[i].Allocation) {
			return false
		}
	}
	return true
}

func TestExploreCancelledImmediately(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := ExploreContext(ctx, models.Decoder(), Options{})
	if !r.Interrupted || r.Reason != ReasonCancelled {
		t.Fatalf("interrupted=%v reason=%q, want cancelled", r.Interrupted, r.Reason)
	}
	if r.Cursor != 0 || len(r.Front) != 0 {
		t.Fatalf("cursor=%d front=%d, want empty prefix", r.Cursor, len(r.Front))
	}
}

func TestExploreDeadlineReason(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	r := ExploreContext(ctx, models.Decoder(), Options{})
	if !r.Interrupted || r.Reason != ReasonDeadline {
		t.Fatalf("interrupted=%v reason=%q, want deadline", r.Interrupted, r.Reason)
	}
}

// TestAnytimePrefixInvariant: a scan cancelled at candidate k returns
// Cursor == k and exactly the Pareto front of the first k candidates —
// the paper's cost-ordering argument, now load-bearing for anytime use
// — for every scan kind of the shared driver.
func TestAnytimePrefixInvariant(t *testing.T) {
	s := models.SetTopBox()
	for _, kind := range scanKinds {
		for _, k := range []int{1, 7, 50, 200} {
			r := kind.cancelAt(s, Options{}, k)
			if !r.Interrupted || r.Reason != ReasonCancelled {
				t.Fatalf("%s k=%d: interrupted=%v reason=%q", kind.name, k, r.Interrupted, r.Reason)
			}
			if r.Cursor != k {
				t.Fatalf("%s k=%d: cursor=%d", kind.name, k, r.Cursor)
			}
			want := prefixFrontOf(s, kind.base(s), Options{}, k)
			if !frontsEqual(r.Front, want) {
				t.Errorf("%s k=%d: partial front (%d entries) is not the Pareto set of the prefix (%d entries)",
					kind.name, k, len(r.Front), len(want))
			}
		}
	}
}

// TestProgressPrefixInvariant: every periodic Progress report carries a
// front that is exactly the Pareto set of the candidates before its
// cursor — what makes checkpoints taken from Progress trustworthy.
func TestProgressPrefixInvariant(t *testing.T) {
	s := models.Decoder()
	var reports []Progress
	Explore(s, Options{ProgressEvery: 5, Progress: func(p Progress) {
		reports = append(reports, p)
	}})
	if len(reports) == 0 {
		t.Fatal("no progress reports")
	}
	for _, p := range reports {
		want := prefixFront(s, Options{}, p.Cursor)
		if !frontsEqual(p.Front, want) {
			t.Errorf("cursor=%d: progress front deviates from prefix Pareto set", p.Cursor)
		}
	}
}

// TestResumeEquivalence (acceptance): on each model, a scan of each
// kind interrupted mid-scan and resumed from its own partial result
// matches the uninterrupted run bit-for-bit — fronts and effort
// counters — and so does the parallel explorer's.
func TestResumeEquivalence(t *testing.T) {
	synth := models.Synthetic(models.SyntheticParams{
		Seed: 1, Apps: 2, Depth: 1, Branch: 2, Vertices: 2,
		Processors: 2, ASICs: 1, Designs: 1, Buses: 3,
		TimedFraction: 0.3, AccelOnlyFraction: 0.3,
	})
	for _, tc := range []struct {
		name string
		s    *spec.Spec
	}{
		{"settop", models.SetTopBox()},
		{"decoder", models.Decoder()},
		{"synthetic", synth},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var res *Resume
			var full *Result
			for _, kind := range scanKinds {
				kfull := kind.run(context.Background(), tc.s, Options{})
				k := kfull.Stats.PossibleAllocations / 2
				if k == 0 {
					k = 1
				}
				part := kind.cancelAt(tc.s, Options{}, k)
				if !part.Interrupted || part.Cursor != k {
					t.Fatalf("%s: interrupt failed: interrupted=%v cursor=%d", kind.name, part.Interrupted, part.Cursor)
				}
				kres := &Resume{Cursor: part.Cursor, Front: part.Front, Stats: part.Stats}

				resumed := kind.run(context.Background(), tc.s, Options{Resume: kres})
				if !frontsEqual(resumed.Front, kfull.Front) {
					t.Errorf("%s: resumed sequential front differs from uninterrupted run", kind.name)
				}
				if resumed.Interrupted || resumed.Reason != ReasonCompleted {
					t.Errorf("%s: resumed run: interrupted=%v reason=%q", kind.name, resumed.Interrupted, resumed.Reason)
				}
				// Semantic counters (scanned, estimated, attempted,
				// feasible, ...) continue exactly across the resume;
				// solver effort and cache counters do not — the resumed
				// run restarts with a cold evaluation cache, so it redoes
				// binding work the warm uninterrupted run avoided.
				if !reflect.DeepEqual(resumed.Stats.Semantic(), kfull.Stats.Semantic()) {
					t.Errorf("%s: resumed stats %+v\n  differ from uninterrupted %+v", kind.name, resumed.Stats, kfull.Stats)
				}
				if kind.name == "explore" {
					full, res = kfull, kres
				}
			}

			par := ExploreParallel(tc.s, Options{}, 4, 8)
			if !frontsEqual(par.Front, full.Front) {
				t.Errorf("parallel front differs from sequential")
			}
			parResumed := ExploreParallel(tc.s, Options{Resume: res}, 4, 8)
			if !frontsEqual(parResumed.Front, full.Front) {
				t.Errorf("parallel resumed front differs from uninterrupted run")
			}
		})
	}
}

// TestCrossModeResumeEquivalence (acceptance): a snapshot taken from a
// Progress emission mid-pipeline is a valid resume point for *either*
// explorer — the sequential resume and the pipelined resume both land
// on the uninterrupted run's front and semantic counters, and the
// mid-pipeline front itself is prefix-exact. This is what makes
// checkpoints interchangeable between -workers=1 and -workers=N runs.
func TestCrossModeResumeEquivalence(t *testing.T) {
	s := models.SetTopBox()
	full := Explore(s, Options{})

	var snap *Progress
	ExploreParallel(s, Options{ProgressEvery: 16, Progress: func(p Progress) {
		if snap == nil && p.Cursor >= 48 && p.Cursor < full.Cursor {
			cp := p
			cp.Front = append([]*Implementation(nil), p.Front...)
			snap = &cp
		}
	}}, 4, 8)
	if snap == nil {
		t.Fatal("no mid-scan progress emission from the pipeline")
	}
	if want := prefixFront(s, Options{}, snap.Cursor); !frontsEqual(snap.Front, want) {
		t.Fatalf("cursor=%d: mid-pipeline progress front is not the prefix Pareto set", snap.Cursor)
	}

	res := &Resume{Cursor: snap.Cursor, Front: snap.Front, Stats: snap.Stats}
	seqResumed := Explore(s, Options{Resume: res})
	parResumed := ExploreParallel(s, Options{Resume: res}, 4, 8)
	if !frontsEqual(seqResumed.Front, full.Front) {
		t.Errorf("sequential resume of a pipeline snapshot diverges from the full run")
	}
	if !frontsEqual(parResumed.Front, full.Front) {
		t.Errorf("pipelined resume of a pipeline snapshot diverges from the full run")
	}
	if seqResumed.Cursor != full.Cursor || parResumed.Cursor != full.Cursor {
		t.Errorf("resumed cursors %d/%d != full run's %d",
			seqResumed.Cursor, parResumed.Cursor, full.Cursor)
	}
	if !reflect.DeepEqual(seqResumed.Stats.Semantic(), full.Stats.Semantic()) {
		t.Errorf("sequential resume semantic stats diverge:\n%+v\n%+v",
			seqResumed.Stats.Semantic(), full.Stats.Semantic())
	}
	if !reflect.DeepEqual(parResumed.Stats.Semantic(), full.Stats.Semantic()) {
		t.Errorf("pipelined resume semantic stats diverge:\n%+v\n%+v",
			parResumed.Stats.Semantic(), full.Stats.Semantic())
	}
}

// TestPipelineFinalProgress: the scan tail past the last periodic
// emission still reports — the pipeline fires a closing Progress event
// at the final cursor (the old wave explorer silently dropped the final
// partial batch). With ProgressEvery larger than the scan, that final
// event is the only one, and it must carry the complete front.
func TestPipelineFinalProgress(t *testing.T) {
	s := models.Decoder()
	var last *Progress
	count := 0
	r := ExploreParallel(s, Options{ProgressEvery: 1 << 30, Progress: func(p Progress) {
		count++
		cp := p
		cp.Front = append([]*Implementation(nil), p.Front...)
		last = &cp
	}}, 2, 4)
	if count != 1 {
		t.Fatalf("got %d progress emissions, want exactly the final one", count)
	}
	if last.Cursor != r.Cursor {
		t.Errorf("final progress cursor %d != result cursor %d", last.Cursor, r.Cursor)
	}
	if !frontsEqual(last.Front, r.Front) {
		t.Errorf("final progress front differs from the result front")
	}
	if last.Stats.PossibleAllocations != r.Stats.PossibleAllocations {
		t.Errorf("final progress stats incomplete: possible %d != %d",
			last.Stats.PossibleAllocations, r.Stats.PossibleAllocations)
	}
}

// TestParallelCancelPrefixExact: cancelling the parallel explorer stops
// the fold at the first unevaluated candidate, so its partial front is
// the Pareto set of the prefix before Cursor.
func TestParallelCancelPrefixExact(t *testing.T) {
	s := models.SetTopBox()
	const k = 100
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{Fault: faultinject.New().CancelAt(SiteEstimate, k).Bind(cancel)}
	r := ExploreParallelContext(ctx, s, opts, 4, 16)
	if !r.Interrupted || r.Reason != ReasonCancelled {
		t.Fatalf("interrupted=%v reason=%q", r.Interrupted, r.Reason)
	}
	// Workers race the cancellation, so the exact stop point may land
	// anywhere in the wave containing k — but wherever it lands, the
	// front must be the prefix Pareto set at that cursor.
	if r.Cursor <= 0 || r.Cursor > k+16 {
		t.Fatalf("cursor=%d out of the expected window", r.Cursor)
	}
	if want := prefixFront(s, Options{}, r.Cursor); !frontsEqual(r.Front, want) {
		t.Errorf("cursor=%d: parallel partial front is not the prefix Pareto set", r.Cursor)
	}
	res := &Resume{Cursor: r.Cursor, Front: r.Front, Stats: r.Stats}
	if resumed := ExploreParallel(s, Options{Resume: res}, 4, 16); !frontsEqual(resumed.Front, Explore(s, Options{}).Front) {
		t.Errorf("parallel interrupted+resumed front differs from uninterrupted run")
	}
}

// TestParallelPanicIsolation: a candidate whose evaluation panics is
// recovered in its worker, recorded as a structured diagnostic, and
// skipped; the rest of the scan — and the front — are unaffected when
// the poisoned candidate is not a front member.
func TestParallelPanicIsolation(t *testing.T) {
	s := models.SetTopBox()
	full := Explore(s, Options{})
	onFront := func(a spec.Allocation) bool {
		for _, im := range full.Front {
			if im.Allocation.Equal(a) {
				return true
			}
		}
		return false
	}
	// Pick a candidate that is not a Pareto-front member, so skipping it
	// must leave the front unchanged.
	victim := -1
	idx := 0
	alloc.Enumerate(s, alloc.Options{}, func(c alloc.Candidate) bool {
		if !onFront(c.Allocation) {
			victim = idx
			return false
		}
		idx++
		return true
	})
	if victim < 0 {
		t.Fatal("no non-front candidate found")
	}

	plan := faultinject.New().PanicAt(SiteEstimate, victim, "poisoned candidate")
	r := ExploreParallel(s, Options{Fault: plan}, 4, 16)
	if r.Interrupted || r.Reason != ReasonCompleted {
		t.Fatalf("run did not complete: interrupted=%v reason=%q", r.Interrupted, r.Reason)
	}
	if !frontsEqual(r.Front, full.Front) {
		t.Errorf("front changed after skipping a non-front candidate")
	}
	if len(r.Stats.Diags) != 1 {
		t.Fatalf("diags=%d, want 1", len(r.Stats.Diags))
	}
	d := r.Stats.Diags[0]
	if d.Kind != DiagPanic || d.Site != SiteEstimate || d.Cursor != victim {
		t.Errorf("diag %+v, want panic at %s[%d]", d, SiteEstimate, victim)
	}
	if !strings.Contains(d.Message, "poisoned candidate") || d.Stack == "" {
		t.Errorf("diag lacks message/stack: %+v", d)
	}
}

// TestParallelPanicEveryCandidate: even when every single evaluation
// panics the scan terminates normally with one diagnostic per candidate
// and an empty front.
func TestParallelPanicEveryCandidate(t *testing.T) {
	s := models.Decoder()
	plan := faultinject.New().PanicAt(SiteEstimate, -1, "all down")
	r := ExploreParallel(s, Options{Fault: plan}, 4, 8)
	if r.Interrupted {
		t.Fatal("interrupted")
	}
	if len(r.Front) != 0 {
		t.Fatalf("front has %d entries, want 0", len(r.Front))
	}
	if len(r.Stats.Diags) != r.Stats.PossibleAllocations {
		t.Errorf("diags=%d, possible=%d — every candidate should carry one",
			len(r.Stats.Diags), r.Stats.PossibleAllocations)
	}
}

// TestInjectedErrorSkipsCandidate: an injected (non-panic) estimation
// error is recorded and the candidate skipped, by every scan kind and
// by the parallel explorer.
func TestInjectedErrorSkipsCandidate(t *testing.T) {
	s := models.Decoder()
	parallel := scanKind{"parallel", func(ctx context.Context, s *spec.Spec, opts Options) *Result {
		return ExploreParallelContext(ctx, s, opts, 4, 8)
	}, nil}
	for _, kind := range append(scanKinds, parallel) {
		plan := faultinject.New().ErrorAt(SiteEstimate, 0, nil)
		r := kind.run(context.Background(), s, Options{Fault: plan})
		if len(r.Stats.Diags) != 1 || r.Stats.Diags[0].Kind != DiagError {
			t.Fatalf("%s: diags %+v, want one error diag", kind.name, r.Stats.Diags)
		}
		if len(plan.Firings()) != 1 {
			t.Fatalf("%s: firings %v", kind.name, plan.Firings())
		}
	}
}

// TestStopAtMaxFlexFinalFlush: the termination reason of a StopAtMaxFlex
// hit must survive the parallel explorer's *final* wave flush (whose
// boolean result is discarded), including with a batch so large the
// entire scan is that one final flush.
func TestStopAtMaxFlexFinalFlush(t *testing.T) {
	s := models.SetTopBox()
	seq := Explore(s, Options{StopAtMaxFlex: true})
	if seq.Reason != ReasonMaxFlex {
		t.Fatalf("sequential reason=%q, want max-flex", seq.Reason)
	}
	par := ExploreParallel(s, Options{StopAtMaxFlex: true}, 4, 100000)
	if par.Reason != ReasonMaxFlex {
		t.Errorf("parallel reason=%q, want max-flex (final flush dropped the stop signal)", par.Reason)
	}
	if !frontsEqual(seq.Front, par.Front) {
		t.Errorf("fronts differ under StopAtMaxFlex")
	}
}

func TestRandomSearchCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := RandomSearchContext(ctx, models.Decoder(), Options{}, 100, 1)
	if !r.Interrupted || r.Reason != ReasonCancelled || r.Cursor != 0 {
		t.Fatalf("interrupted=%v reason=%q cursor=%d", r.Interrupted, r.Reason, r.Cursor)
	}
}

func TestEvolutionaryCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := EvolutionaryContext(ctx, models.Decoder(), Options{}, EAConfig{Seed: 1})
	if !r.Interrupted || r.Reason != ReasonCancelled {
		t.Fatalf("interrupted=%v reason=%q", r.Interrupted, r.Reason)
	}
}

func TestExploreMultiCancel(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	r := ExploreMultiContext(ctx, models.Decoder(), Options{}, nil)
	if !r.Interrupted || r.Reason != ReasonDeadline || len(r.Front) != 0 {
		t.Fatalf("interrupted=%v reason=%q front=%d", r.Interrupted, r.Reason, len(r.Front))
	}
}

func TestUpgradeCancel(t *testing.T) {
	s := models.SetTopBox()
	full := Explore(s, Options{})
	if len(full.Front) == 0 {
		t.Fatal("no base")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := UpgradeContext(ctx, s, full.Front[0].Allocation, Options{})
	if !r.Interrupted || r.Reason != ReasonCancelled {
		t.Fatalf("interrupted=%v reason=%q", r.Interrupted, r.Reason)
	}
}

// TestExhaustiveDeadlineAnytime: the exhaustive baseline inherits the
// anytime semantics; its interrupted front must also be prefix-exact
// (with the exhaustive option overrides applied to the ground truth).
func TestExhaustiveDeadlineAnytime(t *testing.T) {
	s := models.SetTopBox()
	const k = 64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{Fault: faultinject.New().CancelAt(SiteEstimate, k).Bind(cancel)}
	r := ExhaustiveContext(ctx, s, opts)
	if !r.Interrupted || r.Cursor != k {
		t.Fatalf("interrupted=%v cursor=%d", r.Interrupted, r.Cursor)
	}
	exOpts := Options{DisableFlexBound: true, IncludeUselessComm: true}
	if want := prefixFront(s, exOpts, k); !frontsEqual(r.Front, want) {
		t.Errorf("exhaustive partial front is not the prefix Pareto set")
	}
}

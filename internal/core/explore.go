package core

import (
	"context"

	"repro/internal/alloc"
	"repro/internal/pareto"
	"repro/internal/spec"
)

// Explore runs the paper's EXPLORE algorithm: possible resource
// allocations are inspected in order of increasing allocation cost;
// for each candidate the maximum implementable flexibility is estimated
// by a single reduction of the specification, and only candidates whose
// estimate exceeds the best implemented flexibility go to the expensive
// implementation construction (elementary cluster activations, binding,
// timing validation). Because candidates arrive in nondecreasing cost,
// a newly constructed implementation is Pareto-optimal iff its
// flexibility exceeds every flexibility implemented so far, so the
// returned front is exactly the Pareto-optimal set over the explored
// space.
func Explore(s *spec.Spec, opts Options) *Result {
	return ExploreContext(context.Background(), s, opts)
}

// ExploreContext is Explore under a context: when ctx is cancelled or
// its deadline expires, the cost-ordered scan stops cleanly and the
// best-so-far front is returned with Interrupted set and Cursor at the
// first unevaluated candidate. The cost ordering makes every partial
// front exactly the Pareto set of the explored prefix, so an
// interrupted result is a valid anytime answer; continue it with
// Options.Resume.
func ExploreContext(ctx context.Context, s *spec.Spec, opts Options) *Result {
	sc := newScan(ctx, s, opts)
	pol := sc.explorePolicy()
	sc.run(nil, pol)
	return sc.result(pol)
}

// scanPolicy is what distinguishes the cost-ordered scans that share
// the driver (scan.run): Explore and Upgrade bound by the best
// implemented flexibility (explorePolicy), ExploreMulti by objective
// dominance (multiPolicy).
type scanPolicy interface {
	// prune reports whether the flexibility bound skips a candidate
	// whose cached estimate is est.
	prune(a spec.Allocation, est float64) bool
	// fold folds one implementation attempt (im nil when infeasible),
	// or an entry of a Resume front, and reports whether it counts as
	// feasible and whether the scan stops there (ReasonMaxFlex).
	fold(im *Implementation) (feasible, stop bool)
	// archive returns the front folded so far.
	archive() *pareto.Front
}

// outcome records what the step did with one candidate. The parallel
// workers also record the implementation effort in it, which the
// sequential driver adds to its stats directly.
type outcome struct {
	// site is the failpoint site last reached (where a panic struck).
	site                                 string
	est                                  float64
	estimated, attempted, cancelled      bool
	impl                                 *Implementation
	diag                                 *Diag
	ecsTested, bindingRuns, bindingNodes int
}

// step evaluates candidate idx in the engine's fixed order: estimate
// failpoint, cancellation re-check, estimation, bound check, implement
// failpoint, implementation construction. The implementation effort is
// added to st; folding the outcome is the caller's. It reads only the
// run-wide inputs, so the parallel workers share it.
func (sc *scan) step(idx int, a spec.Allocation, pol scanPolicy, r *outcome, st *Stats) {
	fault := func(site string) bool {
		r.site = site
		if err := sc.opts.Fault.Fire(site, idx); err != nil {
			r.diag = &Diag{Kind: DiagError, Site: site, Cursor: idx, Allocation: a.String(), Message: err.Error()}
		}
		return r.diag != nil
	}
	if fault(SiteEstimate) {
		return
	}
	if sc.ctx.Err() != nil {
		// A Cancel failpoint fired between the two checks.
		r.cancelled = true
		return
	}
	r.estimated = true
	est, sup, haveSup := sc.ev.estimate(a)
	r.est = est
	if !sc.opts.DisableFlexBound && pol.prune(a, est) {
		return
	}
	if fault(SiteImplement) {
		return
	}
	r.attempted = true
	r.impl = sc.ev.implement(a, sup, haveSup, st)
}

// scan is the sequential cost-ordered scan driver behind
// ExploreContext, UpgradeContext and ExploreMultiContext. It owns what
// the scans share — context polling and the anytime bookkeeping
// (Interrupted, Reason, Cursor), Progress reports, the failpoints and
// their diagnostics, Resume seeding and the enumeration statistics —
// and leaves bounding and folding to a scanPolicy. The embedded Result
// holds the anytime state and counters; result adds the front.
type scan struct {
	Result
	ctx  context.Context
	ev   *evaluator
	opts Options
	s    *spec.Spec
}

// newScan prepares a scan of s, continuing the counters and cursor of
// opts.Resume.
func newScan(ctx context.Context, s *spec.Spec, opts Options) *scan {
	sc := &scan{
		Result: Result{MaxFlexibility: MaxFlexibility(s, opts), Reason: ReasonCompleted},
		ctx:    ctx,
		ev:     newEvaluator(s, opts),
		opts:   opts,
		s:      s,
	}
	if r := opts.Resume; r != nil {
		// Scanned and PossibleAllocations restart at zero because the
		// resumed enumeration replays the whole prefix, so counting
		// every candidate again yields the uninterrupted run's totals.
		// Pipeline gauges describe a single run, not the cumulative
		// scan; a resumed run starts them afresh.
		sc.Cursor, sc.Stats = r.Cursor, r.Stats
		sc.Stats.Scanned, sc.Stats.PossibleAllocations = 0, 0
		sc.Stats.Pipeline = PipelineStats{}
	}
	return sc
}

// run scans the possible allocations extending base (nil: every
// possible allocation) in cost order under pol.
func (sc *scan) run(base spec.Allocation, pol scanPolicy) {
	opts := sc.opts
	sc.seed(pol)
	start := sc.Cursor
	lastEmit := start
	// The enumeration replays the resumed prefix internally; the prefix
	// candidates are accounted here so the running count matches a
	// from-scratch scan.
	sc.Stats.PossibleAllocations = start
	visit := func(c alloc.Candidate) bool {
		sc.Stats.PossibleAllocations++
		if sc.ctx.Err() != nil {
			sc.Interrupted, sc.Reason = true, reasonFor(sc.ctx)
			return false
		}
		if opts.Progress != nil && sc.Cursor-lastEmit >= opts.progressEvery() {
			sc.report(pol)
			lastEmit = sc.Cursor
		}
		var r outcome
		sc.step(sc.Cursor, c.Allocation, pol, &r, &sc.Stats)
		if r.cancelled {
			sc.Interrupted, sc.Reason = true, reasonFor(sc.ctx)
			return false
		}
		stop := sc.tally(&r, pol)
		sc.Cursor++
		if stop {
			sc.Reason = ReasonMaxFlex
			return false
		}
		return true
	}
	var aStats alloc.Stats
	if base == nil {
		aStats = enumerateRange(sc.s, opts, 1, start, visit)
	} else {
		skip := start
		aStats = alloc.EnumerateExtensions(sc.s, base, alloc.Options{
			IncludeUselessComm: opts.IncludeUselessComm,
			MaxScan:            opts.MaxScan,
		}, func(c alloc.Candidate) bool {
			if skip > 0 {
				skip--
				return true
			}
			return visit(c)
		})
	}
	sc.finish(aStats)
}

// seed folds the front of opts.Resume into pol.
func (sc *scan) seed(pol scanPolicy) {
	if r := sc.opts.Resume; r != nil {
		for _, im := range r.Front {
			pol.fold(im)
		}
	}
}

// tally folds one evaluated candidate's outcome into the scan: the
// Estimated, Attempted and Feasible counters, a failed evaluation's
// Diag, and an attempted implementation through pol. It reports
// whether pol stops the scan.
func (sc *scan) tally(r *outcome, pol scanPolicy) (stop bool) {
	if r.estimated {
		sc.Stats.Estimated++
	}
	switch {
	case r.diag != nil:
		sc.Stats.Diags = append(sc.Stats.Diags, *r.diag)
	case r.attempted:
		sc.Stats.Attempted++
		var feasible bool
		if feasible, stop = pol.fold(r.impl); feasible {
			sc.Stats.Feasible++
		}
	}
	return stop
}

// report delivers a Progress snapshot of the scan under pol; its best
// flexibility is the front's highest.
func (sc *scan) report(pol scanPolicy) {
	sc.ev.fold(&sc.Stats)
	front, best := frontToImplementations(pol.archive()), 0.0
	for _, im := range front {
		best = max(best, im.Flexibility)
	}
	sc.opts.Progress(Progress{
		Cursor:         sc.Cursor,
		BestFlex:       best,
		MaxFlexibility: sc.MaxFlexibility,
		Front:          front,
		Stats:          sc.Stats,
	})
}

// finish folds the cache counters and the enumeration statistics into
// the scan's stats and classifies a MaxScan-bounded termination.
func (sc *scan) finish(aStats alloc.Stats) {
	_, _, pc, _ := sc.s.Problem.ElementCount()
	sc.ev.fold(&sc.Stats)
	st := &sc.Stats
	st.Scanned = aStats.Scanned
	st.AllocSpace = aStats.SearchSpace
	st.DesignSpace = aStats.SearchSpace * alloc.SearchSpace(pc)
	st.Pipeline.Producers = aStats.Producers
	st.Pipeline.ProducerBusyNanos = aStats.ProducerBusyNanos
	st.Pipeline.MergeStalls = aStats.MergeStalls
	if sc.Reason == ReasonCompleted && sc.opts.MaxScan > 0 && aStats.Scanned >= sc.opts.MaxScan {
		sc.Reason = ReasonScanBound
	}
}

// result returns the outcome of a scan run under pol: a copy, so the
// caller does not keep the scan's evaluator and its caches alive.
func (sc *scan) result(pol *explorePolicy) *Result {
	res := sc.Result
	res.Front = frontToImplementations(&pol.front)
	return &res
}

// explorePolicy is EXPLORE's scalar bound: a candidate is pruned when
// its estimate does not exceed fcur, the best implemented flexibility,
// and StopAtMaxFlex ends the scan once fcur reaches the
// specification's maximum. Implementations with flexibility at or
// below floor are not folded: Upgrade sets it to the base's
// flexibility, Explore leaves it 0, which no implementation has.
type explorePolicy struct {
	front     pareto.Front
	fcur      float64
	floor     float64
	maxFlex   float64
	stopAtMax bool
}

func (sc *scan) explorePolicy() *explorePolicy {
	return &explorePolicy{maxFlex: sc.MaxFlexibility, stopAtMax: sc.opts.StopAtMaxFlex}
}

func (p *explorePolicy) prune(_ spec.Allocation, est float64) bool {
	return est <= p.fcur
}

func (p *explorePolicy) fold(im *Implementation) (feasible, stop bool) {
	if im != nil && im.Flexibility > p.floor {
		if p.front.Add(&pareto.Entry{
			Objectives: pareto.CostFlexObjectives(im.Cost, im.Flexibility),
			Value:      im,
		}) && im.Flexibility > p.fcur {
			p.fcur = im.Flexibility
		}
		feasible = true
	}
	return feasible, p.stopAtMax && p.fcur >= p.maxFlex
}

func (p *explorePolicy) archive() *pareto.Front { return &p.front }

// enumerateRange drives the cost-ordered candidate stream for an
// explorer with the given worker count through the producer
// enumeratorFor resolves, sharded across the walker goroutines
// producersFor resolves (0 selects the direct in-process scan). Every
// producer choice and count emits the bit-identical stream with the
// same range addressing, so everything downstream — fronts, cursors,
// resume, checkpoints — is oblivious to the configuration; only the
// Scanned effort counter (and what MaxScan bounds) is producer-specific.
func enumerateRange(s *spec.Spec, opts Options, workers, start int, fn func(alloc.Candidate) bool) alloc.Stats {
	ao := alloc.Options{
		IncludeUselessComm: opts.IncludeUselessComm,
		MaxScan:            opts.MaxScan,
	}
	n := len(alloc.Units(s))
	producers := opts.producersFor(workers, n)
	symbolic := opts.enumeratorFor(n) == EnumeratorSymbolic
	switch {
	case producers >= 1 && symbolic:
		return alloc.EnumerateSymbolicShardedRange(s, ao, producers, start, fn)
	case producers >= 1:
		return alloc.EnumerateShardedRange(s, ao, producers, start, fn)
	case symbolic:
		return alloc.EnumerateSymbolicRange(s, ao, start, fn)
	default:
		return alloc.EnumerateRange(s, ao, start, fn)
	}
}

func frontToImplementations(front *pareto.Front) []*Implementation {
	var out []*Implementation
	for _, e := range front.Entries() {
		out = append(out, e.Value.(*Implementation))
	}
	return out
}

package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/spec"
)

// ExploreParallel runs EXPLORE with the per-candidate work — the
// flexibility estimation and the implementation construction — fanned
// out over a pool of worker goroutines while keeping the resulting
// front bit-for-bit identical to the sequential explorer.
//
// The engine is a pipeline over *range jobs*: the cost-ordered
// enumeration is chunked into contiguous candidate ranges (adaptive
// size, or Options.Batch), a fixed pool of workers runs the sequential
// explorer's per-candidate step (evalOne) over each range against a
// locally cached flexibility bound, and an ordered-commit stage
// reassembles the ranges in candidate order and folds their
// per-candidate records against the exact bound, exactly as the
// sequential driver folds its own. Compared to per-candidate jobs this
// removes the two serial bottlenecks that flattened the scaling curve:
// the channel handoff is paid once per range instead of once per
// candidate, and the shared bound is republished once per batch commit
// instead of once per implementation.
//
// Determinism is preserved by the commit order plus a second-chance
// re-check: a worker may act on a stale (i.e. lower) bound, which only
// causes extra implementation attempts; the commit stage replays each
// range's records against the exact sequential bound, so fronts,
// cursors, termination reasons and all semantic counters equal the
// sequential run's (see committer.commitBatch for the argument).
//
// workers <= 0 selects GOMAXPROCS; queue <= 0 selects 2 x workers
// range jobs of look-ahead. On a single-core host the pipeline adds
// only a few percent overhead; the speedup materializes with
// GOMAXPROCS > 1 because ranges are evaluated independently.
func ExploreParallel(s *spec.Spec, opts Options, workers, queue int) *Result {
	return ExploreParallelContext(context.Background(), s, opts, workers, queue)
}

// ExploreParallelContext is ExploreParallel under a context, with the
// same anytime semantics as ExploreContext: on cancellation the commit
// stage stops at the first unevaluated candidate (in candidate order),
// so the partial front is exactly the Pareto set of the explored prefix
// and Cursor marks where a resumed run continues.
//
// Candidate evaluations are additionally isolated against panics: a
// panicking estimation or implementation construction is recovered in
// its worker, recorded as a structured Diag in Stats, and the candidate
// is skipped — one poisoned design point cannot take down a long scan.
// (The sequential explorer deliberately does not recover: combined with
// periodic checkpointing, a crash there is recovered by resuming.)
func ExploreParallelContext(ctx context.Context, s *spec.Spec, opts Options, workers, queue int) *Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return ExploreContext(ctx, s, opts)
	}
	if queue <= 0 {
		queue = 2 * workers
	}
	// One evaluator, shared by all workers: its caches are sharded and
	// mutex-striped, so a binding proved (in)feasible by one worker is
	// reused by every other. Building the scan (the maximum-flexibility
	// estimate included) also warms the specification's lazy indexes
	// before concurrent use.
	sc := newScan(ctx, s, opts)
	pol := sc.explorePolicy()
	sc.seed(pol)
	startCursor := sc.Cursor
	sc.Stats.Pipeline = PipelineStats{Workers: workers, QueueDepth: queue}

	p := &pipeline{
		scan: sc,
		jobs: make(chan *pipeBatch, queue),
		// Sized so a worker can always deposit a result without
		// blocking the commit stage's drain: at most queue+workers
		// range jobs are in flight between producer and committer.
		results: make(chan *pipeBatch, queue+workers),
		done:    make(chan struct{}),
	}
	// The enumeration replays the resumed prefix internally; seed the
	// counter so the running count matches a from-scratch scan.
	p.possible.Store(int64(startCursor))
	p.storeBound(pol.fcur)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range p.jobs {
				p.evaluate(b)
				p.results <- b
			}
		}()
	}
	go func() {
		wg.Wait()
		close(p.results)
	}()

	c := &committer{
		p:        p,
		pol:      pol,
		next:     startCursor,
		lastEmit: startCursor,
		pending:  map[int]*pipeBatch{},
	}
	commitDone := make(chan struct{})
	go func() {
		defer close(commitDone)
		c.run()
	}()

	// The producer: the cost-ordered enumeration runs on this
	// goroutine, slicing the candidate stream into contiguous range
	// jobs. Candidate indices are assigned here, so a range job is
	// addressed by its start index alone.
	idx := startCursor
	emitted := 0
	producerCancelled := false
	var cur *pipeBatch
	send := func(b *pipeBatch) bool {
		select {
		case p.jobs <- b:
			if l := int64(len(b.cands)); l > p.maxBatch.Load() {
				p.maxBatch.Store(l)
			}
			if l := int64(len(p.jobs)); l > p.highWater.Load() {
				p.highWater.Store(l)
			}
			// Yield once, after the first dispatch, so the scan's first
			// range job starts before the producer saturates the queue.
			// With sharded producers the stream arrives pre-buffered and
			// sends become back-to-back; on a single-P runtime the
			// scheduler's LIFO wakeup would then run the *latest*-readied
			// worker first, letting a late batch evaluate (and e.g. trip
			// a cancellation) before the first batch is even started —
			// collapsing the anytime cursor to 0. Yielding only here (not
			// per send) keeps the queue free to fill behind busy workers.
			if emitted == 1 {
				runtime.Gosched()
			}
			return true
		case <-p.done:
			// The commit stage ended the scan (cancellation committed
			// in order, or StopAtMaxFlex); b is dropped.
			return false
		}
	}
	aStats := enumerateRange(s, opts, workers, startCursor, func(cd alloc.Candidate) bool {
		p.possible.Add(1)
		if ctx.Err() != nil {
			producerCancelled = true
			return false
		}
		if cur == nil {
			cur = &pipeBatch{
				start: idx,
				cands: make([]spec.Allocation, 0, opts.batchSizeFor(emitted)),
			}
		}
		cur.cands = append(cur.cands, cd.Allocation)
		idx++
		if len(cur.cands) == cap(cur.cands) {
			b := cur
			cur = nil
			emitted++
			return send(b)
		}
		return true
	})
	if cur != nil && !producerCancelled {
		// The scan tail: a partial final range. If send fails the scan
		// already stopped and the tail is irrelevant.
		send(cur)
	}
	close(p.jobs)
	<-commitDone

	if producerCancelled && !c.stopped {
		// The producer observed the cancellation but every in-flight
		// range had already completed: the scan still ends interrupted,
		// prefix-exact at the last committed candidate.
		sc.Interrupted, sc.Reason = true, reasonFor(ctx)
	}
	c.gauges()
	// A final progress event covers the scan tail past the last
	// periodic emission, so long tails still report (and a checkpoint
	// writer hooked on Progress captures the finished prefix).
	if opts.Progress != nil && sc.Cursor > c.lastEmit {
		sc.report(pol)
	}
	sc.finish(aStats)
	return sc.result(pol)
}

// batchSizeFor returns the size of the k-th range job of a run. An
// explicit Options.Batch pins every batch to that size. The adaptive
// default ramps 4, 8, 16, ... so the first commits land quickly (low
// latency for Progress consumers and StopAtMaxFlex), then settles at
// 64 candidates per job — large enough to amortize the channel handoff
// and commit bookkeeping, small enough to keep the reorder buffer and
// the cancellation overshoot bounded. When progress reporting is on,
// the ramp is additionally capped at the progress interval so batch
// commits never emit coarser than ProgressEvery.
func (o Options) batchSizeFor(k int) int {
	if o.Batch > 0 {
		return o.Batch
	}
	limit := 64
	if o.Progress != nil && o.progressEvery() < limit {
		limit = o.progressEvery()
	}
	size := 4
	for i := 0; i < k && size < limit; i++ {
		size *= 2
	}
	if size > limit {
		size = limit
	}
	return size
}

// pipeBatch is one contiguous candidate range travelling through the
// pipeline: the allocations to evaluate (indices start..start+len-1 of
// the cost-ordered enumeration) and one record per candidate carrying
// its evaluation outcome.
type pipeBatch struct {
	start int
	cands []spec.Allocation
	recs  []outcome
}

// pipeline holds the shared state of one parallel run: the scan it
// runs, the channels, the atomically published flexibility bound, and
// the contention gauges. The workers read only the scan's run-wide
// inputs (context, evaluator, options); its anytime state and counters
// belong to the commit stage.
type pipeline struct {
	*scan
	jobs    chan *pipeBatch
	results chan *pipeBatch
	// done is closed by the commit stage when the scan must stop;
	// producer and workers treat it as a fast-path skip.
	done chan struct{}
	// bound is the best implemented flexibility (math.Float64bits),
	// written by the commit stage once per committed batch, read by
	// workers once per batch. A stale read only admits extra
	// implementation attempts; the commit stage re-checks against the
	// exact bound.
	bound     atomic.Uint64
	publishes atomic.Int64
	possible  atomic.Int64
	highWater atomic.Int64
	busy      atomic.Int64
	maxBatch  atomic.Int64
}

// loadBound reads the published flexibility bound. It and storeBound
// are the only places allowed to convert the bound through
// math.Float64bits (enforced by flexvet FX002).
//
//flexvet:bound-helper
func (p *pipeline) loadBound() float64 {
	return math.Float64frombits(p.bound.Load())
}

// storeBound publishes a new flexibility bound to the workers and
// counts the publication — the relaxed per-batch cadence is the
// BoundPublishes gauge.
//
//flexvet:bound-helper
func (p *pipeline) storeBound(f float64) {
	p.bound.Store(math.Float64bits(f))
	p.publishes.Add(1)
}

// evaluate runs one range job on a worker goroutine. The published
// bound is read once per batch into a worker-local bound, which the
// worker's own implemented flexibilities then raise: for any candidate
// the local bound is never above the exact sequential bound at that
// candidate (the atomic is at most the bound at the batch's commit
// turn, and an own implementation's flexibility F at an earlier index
// satisfies F <= est there, which is <= the sequential bound whenever
// the sequential run skipped it) — so the worker attempts a superset
// of the sequential run's attempts and skips none of them, which is
// what makes the committer's exact replay sufficient.
func (p *pipeline) evaluate(b *pipeBatch) {
	start := time.Now() //flexvet:ignore FX006 busy gauge: elapsed time is telemetry, never part of results
	defer func() { p.busy.Add(time.Since(start).Nanoseconds()) }()
	b.recs = make([]outcome, len(b.cands))
	local := &explorePolicy{fcur: p.loadBound()}
	// The implementation effort is counted in one Stats per batch, not
	// per candidate: it escapes to the heap.
	var st Stats
	for i := range b.cands {
		select {
		case <-p.done:
			// The scan already ended at an earlier candidate; the
			// commit stage discards this range unexamined.
			return
		default:
		}
		if p.ctx.Err() != nil {
			b.recs[i].cancelled = true
			return
		}
		p.evalOne(b, i, local, &st)
		if b.recs[i].cancelled {
			return
		}
	}
}

// evalOne is the shared per-candidate step (scan.step, the
// sequential explorer's exact order of operations) run against the
// worker-local bound, which the implementation raises. A panic is
// recovered into a per-candidate Diag, exactly isolating the poisoned
// candidate.
func (p *pipeline) evalOne(b *pipeBatch, i int, local *explorePolicy, st *Stats) {
	idx := b.start + i
	r := &b.recs[i]
	defer func() {
		if rec := recover(); rec != nil {
			r.diag = &Diag{
				Kind: DiagPanic, Site: r.site, Cursor: idx,
				Allocation: b.cands[i].String(),
				Message:    fmt.Sprint(rec),
				Stack:      trimStack(debug.Stack()),
			}
		}
	}()
	*st = Stats{}
	p.step(idx, b.cands[i], local, r, st)
	r.ecsTested, r.bindingRuns, r.bindingNodes = st.ECSTested, st.BindingRuns, st.BindingNodes
	if r.impl != nil && r.impl.Flexibility > local.fcur {
		local.fcur = r.impl.Flexibility
	}
}

// committer is the ordered-commit stage: it owns the scan's anytime
// state and counters, the front and the exact flexibility bound (the
// Explore policy), folding range jobs strictly in candidate order
// through a reorder buffer keyed by range start.
type committer struct {
	p        *pipeline
	pol      *explorePolicy
	next     int
	lastEmit int
	pending  map[int]*pipeBatch
	stalls   int
	batches  int
	stopped  bool
}

func (c *committer) run() {
	for b := range c.p.results {
		if c.stopped {
			// Drain: the scan already ended at an earlier candidate.
			continue
		}
		if b.start != c.next {
			c.pending[b.start] = b
			c.stalls++
			continue
		}
		c.commitBatch(b)
		for !c.stopped {
			nb, ok := c.pending[c.next]
			if !ok {
				break
			}
			delete(c.pending, c.next)
			c.commitBatch(nb)
		}
	}
}

// commitBatch folds one in-order range job into the scan with the
// sequential driver's fold (scan.tally under the Explore policy),
// candidate by candidate. By induction the scan is the sequential run
// over the committed prefix. The worker attempted a superset of the
// sequential attempts (see evaluate), so dropping the attempts the
// exact bound prunes at their commit turn recovers the sequential
// attempt set — and with it the front, counters, cursor and
// termination.
func (c *committer) commitBatch(b *pipeBatch) {
	sc, pol := c.p.scan, c.pol
	entry := pol.fcur
	for i := range b.recs {
		r := &b.recs[i]
		idx := b.start + i
		if r.cancelled || (!r.estimated && r.diag == nil) {
			// First unevaluated candidate: the scan ends here,
			// prefix-exact.
			sc.Interrupted, sc.Reason = true, reasonFor(sc.ctx)
			sc.Cursor = idx
			c.stop()
			return
		}
		// Second chance against the exact bound as of this candidate's
		// commit turn: drop attempts the sequential run would have
		// skipped.
		if r.attempted && !sc.opts.DisableFlexBound && pol.prune(b.cands[i], r.est) {
			r.attempted = false
		}
		if r.attempted && r.diag == nil {
			sc.Stats.ECSTested += r.ecsTested
			sc.Stats.BindingRuns += r.bindingRuns
			sc.Stats.BindingNodes += r.bindingNodes
		}
		if sc.tally(r, pol) {
			sc.Reason = ReasonMaxFlex
			sc.Cursor = idx + 1
			c.stop()
			return
		}
	}
	if pol.fcur > entry {
		// Republish once per committed batch — the relaxed cadence.
		c.p.storeBound(pol.fcur)
	}
	c.batches++
	c.advance(b.start + len(b.recs))
}

func (c *committer) advance(cursor int) {
	c.next = cursor
	c.p.Cursor = cursor
	if c.p.opts.Progress != nil && cursor-c.lastEmit >= c.p.opts.progressEvery() {
		c.gauges()
		c.p.report(c.pol)
		c.lastEmit = cursor
	}
}

// gauges copies the pipeline's counters into the scan's stats.
func (c *committer) gauges() {
	st := &c.p.Stats
	st.PossibleAllocations = int(c.p.possible.Load())
	st.Pipeline.QueueHighWater = int(c.p.highWater.Load())
	st.Pipeline.CommitStalls = c.stalls
	st.Pipeline.BusyNanos = c.p.busy.Load()
	st.Pipeline.BatchSize = int(c.p.maxBatch.Load())
	st.Pipeline.BatchesCommitted = c.batches
	st.Pipeline.BoundPublishes = int(c.p.publishes.Load())
}

func (c *committer) stop() {
	c.stopped = true
	close(c.p.done)
}

// trimStack bounds a recovered panic's stack trace so Stats diags stay
// checkpoint-friendly.
func trimStack(stack []byte) string {
	const max = 2048
	if len(stack) > max {
		return string(stack[:max]) + "\n...[truncated]"
	}
	return string(stack)
}

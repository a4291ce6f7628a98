package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/alloc"
	"repro/internal/bind"
	"repro/internal/bitset"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/flex"
	"repro/internal/hgraph"
	"repro/internal/pareto"
	"repro/internal/spec"
)

// kind names a span: the layer function a replayed call went into.
type kind uint8

const (
	kExplore     kind = iota // one replayed exploration (root span)
	kProduce                 // alloc.Enumerate{,Symbolic}Range, callback excluded
	kCandidate               // the exploration loop's body for one candidate
	kSupportable             // alloc.Supporter.SupportableOf
	kEstimate                // flex.Flexibility of the supportable set
	kArchView                // Allocation.EnumerateArchSelections + Spec.ArchViewFor
	kECS                     // cover.EnumerateFunc, callback excluded
	kFlatten                 // hgraph.Graph.Flatten
	kBind                    // bind.Find
	kActivatable             // flex.ActivatableClusters + flex.Flexibility
	kCommit                  // pareto.Front.Add
	kCapture                 // checkpoint.Capture
	kSave                    // checkpoint.Writer.Save
	kJob                     // one service job, submit to result body (root span)
	kSubmit                  // POST /jobs
	kWait                    // GET /jobs/{id}/events, open to terminal event
	kResult                  // GET /jobs/{id}/result
	kDirect                  // the same request run in-process (core.ExploreContext)
	nKinds
)

var kindNames = [nKinds]string{
	"core.explore", "alloc.produce", "core.candidate", "alloc.supportable",
	"flex.estimate", "spec.archview", "cover.ecs", "hgraph.flatten", "bind.find",
	"flex.activatable", "pareto.add", "checkpoint.capture", "checkpoint.save",
	"server.job", "server.submit", "server.wait", "server.result", "server.direct",
}

// span is one recorded call: its interval in nanoseconds since the
// tracer started, the enclosing span (-1 at a root) and the operation
// (exploration or job) it belongs to.
type span struct {
	start, end int64
	parent     int32
	op         int32
	kind       kind
}

// tracer records spans in memory from a single goroutine; they are
// written out when the run ends. A nil tracer records nothing, so the
// same code path serves timed (untraced) operations.
type tracer struct {
	t0    time.Time
	spans []span
	cur   int32
	op    int32
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1, op: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// root opens the root span of a new operation.
func (t *tracer) root(k kind) int32 {
	if t == nil {
		return -1
	}
	t.op++
	return t.begin(k)
}

func (t *tracer) begin(k kind) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{start: t.now(), parent: t.cur, op: t.op, kind: k})
	t.cur = id
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = t.now()
	t.cur = t.spans[id].parent
}

func (t *tracer) dur(id int32) time.Duration {
	return time.Duration(t.spans[id].end - t.spans[id].start)
}

// selfTimes sums each kind's self time (its spans minus their
// children) and counts its spans.
func (t *tracer) selfTimes() (self [nKinds]time.Duration, count [nKinds]int) {
	for _, sp := range t.spans {
		d := time.Duration(sp.end - sp.start)
		self[sp.kind] += d
		count[sp.kind]++
		if sp.parent >= 0 {
			self[t.spans[sp.parent].kind] -= d
		}
	}
	return self, count
}

// writeSpans saves the spans of every replayed seed to one file, one
// span per line (seed, op, id, parent, name, start ns, end ns),
// gzip-compressed.
func writeSpans(path string, recs []*replayRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	bw := bufio.NewWriter(zw)
	for _, rec := range recs {
		for i, sp := range rec.tr.spans {
			fmt.Fprintf(bw, "%d %d %d %d %s %d %d\n",
				rec.seed, sp.op, i, sp.parent, kindNames[sp.kind], sp.start, sp.end)
		}
	}
	err = bw.Flush()
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// replayOptions selects the replayed exploration's producer and its
// periodic checkpoints.
type replayOptions struct {
	symbolic bool
	// writer, when set, receives a checkpoint at every progress
	// interval, the way the service's periodic jobs write them.
	writer *checkpoint.Writer
}

// replayOutput is one replayed exploration.
type replayOutput struct {
	front        front
	stats        core.Stats
	root         int32 // the exploration's root span
	bindFeasible int   // bind.Find calls that found a binding
	saves        int
	bytes        int64
}

// progressEvery is the candidate interval of the engine's progress
// reports (core.Options.ProgressEvery's default, and the service's
// default checkpoint cadence).
const progressEvery = 64

// replayExplore runs the paper's EXPLORE on s with default options the
// way sequential core.ExploreContext does over the uncached evaluator,
// but calling each layer's public function directly under a span:
//
//  1. alloc.Enumerate{,Symbolic}Range produces cost-ordered candidates;
//  2. alloc.Supporter.SupportableOf and flex.Flexibility estimate each;
//  3. Allocation.EnumerateArchSelections and Spec.ArchViewFor build the
//     architecture views of a candidate that beats the bound;
//  4. cover.EnumerateFunc enumerates its elementary cluster activations;
//  5. Graph.Flatten flattens each;
//  6. bind.Find binds it onto the views;
//  7. flex.ActivatableClusters normalizes the feasible clusters;
//  8. pareto.Front.Add commits the implementation.
//
// Its front and counters must equal core.Explore with DisableCache.
func replayExplore(tr *tracer, s *spec.Spec, ro replayOptions) replayOutput {
	var out replayOutput
	out.root = tr.root(kExplore)
	maxFlex := core.MaxFlexibility(s, core.Options{})
	sup := alloc.NewSupporter(s)
	st := &out.stats
	pf := &pareto.Front{}
	fcur := 0.0
	idx, lastEmit := 0, 0

	produce := tr.begin(kProduce)
	enumerate := alloc.EnumerateRange
	if ro.symbolic {
		enumerate = alloc.EnumerateSymbolicRange
	}
	as := enumerate(s, alloc.Options{}, 0, func(c alloc.Candidate) bool {
		cand := tr.begin(kCandidate)
		defer tr.end(cand)
		st.PossibleAllocations++
		if ro.writer != nil && idx-lastEmit >= progressEvery {
			out.checkpoint(tr, s, ro.writer, core.Progress{
				Cursor: idx, BestFlex: fcur, MaxFlexibility: maxFlex,
				Front: implementations(pf), Stats: *st,
			})
			lastEmit = idx
		}
		idx++
		st.Estimated++
		sp := tr.begin(kSupportable)
		supportable := sup.SupportableOf(c.Allocation)
		tr.end(sp)
		sp = tr.begin(kEstimate)
		est := flex.Flexibility(s.Problem, flex.FromBits(supportable, sup.Clusters))
		tr.end(sp)
		if est <= fcur {
			return true
		}
		st.Attempted++
		im := out.implement(tr, s, c.Allocation, sup.Clusters, supportable)
		if im == nil {
			return true
		}
		st.Feasible++
		sp = tr.begin(kCommit)
		added := pf.Add(&pareto.Entry{
			Objectives: pareto.CostFlexObjectives(im.Cost, im.Flexibility),
			Value:      im,
		})
		tr.end(sp)
		if added && im.Flexibility > fcur {
			fcur = im.Flexibility
		}
		return true
	})
	tr.end(produce)
	st.Scanned = as.Scanned
	out.front = frontOf(&core.Result{Front: implementations(pf)})
	tr.end(out.root)
	return out
}

// The replay runs with core.Options' defaults: the paper's timing test,
// an unbounded binding search, and at most maxECS elementary cluster
// activations tested per candidate.
const maxECS = 10000

var bindOptions = bind.Options{Timing: bind.TimingPaper}

// implement mirrors core.Implement on one candidate.
func (out *replayOutput) implement(tr *tracer, s *spec.Spec, a spec.Allocation,
	cix *bitset.Indexer[hgraph.ID], supportable bitset.Set) *core.Implementation {
	st := &out.stats

	sp := tr.begin(kArchView)
	var views []*spec.ArchView
	a.EnumerateArchSelections(s, func(sel hgraph.Selection) bool {
		if av, err := s.ArchViewFor(a, sel); err == nil {
			views = append(views, av)
		}
		return true
	})
	tr.end(sp)

	feasible := map[hgraph.ID]bool{}
	var behaviours []core.Behaviour
	tested := 0
	sp = tr.begin(kECS)
	cover.EnumerateFunc(s.Problem, func(id hgraph.ID) bool {
		i, ok := cix.Index(id)
		return ok && supportable.Has(i)
	}, func(e cover.ECS) bool {
		tested++
		novel := false
		for _, c := range e.Clusters {
			if !feasible[c] {
				novel = true
				break
			}
		}
		if !novel {
			return tested < maxECS
		}
		st.ECSTested++
		fsp := tr.begin(kFlatten)
		fp, err := s.Problem.Flatten(e.Selection)
		tr.end(fsp)
		if err != nil {
			return tested < maxECS
		}
		for _, av := range views {
			st.BindingRuns++
			bsp := tr.begin(kBind)
			res, ok := bind.Find(s, fp, av, bindOptions)
			tr.end(bsp)
			st.BindingNodes += res.Nodes
			if ok {
				out.bindFeasible++
				for _, c := range e.Clusters {
					feasible[c] = true
				}
				behaviours = append(behaviours, core.Behaviour{
					ECS: e, ArchSelection: av.Selection, Binding: res.Binding,
				})
				break
			}
		}
		return tested < maxECS
	})
	tr.end(sp)

	sp = tr.begin(kActivatable)
	implemented := flex.ActivatableClusters(s.Problem, flex.FromSet(feasible))
	f := flex.Flexibility(s.Problem, flex.FromSet(implemented))
	tr.end(sp)
	if f <= 0 {
		return nil
	}
	clusters := make([]hgraph.ID, 0, len(implemented))
	for c := range implemented {
		clusters = append(clusters, c)
	}
	sort.Slice(clusters, func(i, j int) bool { return clusters[i] < clusters[j] })
	kept := behaviours[:0]
	for _, b := range behaviours {
		all := true
		for _, c := range b.ECS.Clusters {
			all = all && implemented[c]
		}
		if all {
			kept = append(kept, b)
		}
	}
	return &core.Implementation{
		Allocation: a.Clone(), Cost: a.Cost(s), Flexibility: f,
		Clusters: clusters, Behaviours: kept,
	}
}

// checkpoint captures and saves a snapshot the way the service's
// periodic jobs do at each progress report.
func (out *replayOutput) checkpoint(tr *tracer, s *spec.Spec, w *checkpoint.Writer, p core.Progress) {
	sp := tr.begin(kCapture)
	snap, err := checkpoint.Capture(s, core.Options{}, p)
	tr.end(sp)
	if err != nil {
		return
	}
	sp = tr.begin(kSave)
	err = w.Save(snap)
	tr.end(sp)
	if err != nil {
		return
	}
	out.saves++
	if fi, err := os.Stat(w.Path); err == nil {
		out.bytes += fi.Size()
	}
}

func implementations(pf *pareto.Front) []*core.Implementation {
	var out []*core.Implementation
	for _, e := range pf.Entries() {
		out = append(out, e.Value.(*core.Implementation))
	}
	return out
}

// replayRecord accumulates the replayed explorations of one seed and
// checks each against its uncached reference.
type replayRecord struct {
	attempted    int // operations run: replays, and service jobs and direct runs
	ops          int
	exploreWall  time.Duration // replayed explorations, spans included
	refWall      time.Duration // the same explorations, uncached and untraced
	counts       core.Stats    // summed replay counters
	bindFeasible int
	frontSize    int
	saves        int
	bytes        int64
	periodicJobs int
	mismatches   []string
	seed         int64
	tr           *tracer // the replay's spans

	// Service jobs: the HTTP lifecycle and the in-process run of the
	// same request.
	jobs        int
	jobWall     time.Duration
	directWall  time.Duration
	resultBytes int
}

// add checks one replayed exploration: its front and its semantic and
// solver counters must equal the uncached reference run's.
func (rec *replayRecord) add(name string, out replayOutput, ref reference) {
	rec.attempted++
	rec.ops++
	rec.exploreWall += rec.tr.dur(out.root)
	rec.refWall += ref.wall
	rec.bindFeasible += out.bindFeasible
	rec.frontSize += len(out.front)
	rec.saves += out.saves
	rec.bytes += out.bytes
	c, r := out.stats, ref.stats
	rec.counts.Estimated += c.Estimated
	rec.counts.Attempted += c.Attempted
	rec.counts.ECSTested += c.ECSTested
	rec.counts.BindingRuns += c.BindingRuns
	rec.counts.BindingNodes += c.BindingNodes
	var bad []string
	if err := ref.front.check("front", out.front); err != nil {
		bad = append(bad, err.Error())
	}
	type pair struct {
		name      string
		got, want int
	}
	for _, p := range []pair{
		{"Estimated", c.Estimated, r.Estimated},
		{"Attempted", c.Attempted, r.Attempted},
		{"ECSTested", c.ECSTested, r.ECSTested},
		{"BindingRuns", c.BindingRuns, r.BindingRuns},
		{"BindingNodes", c.BindingNodes, r.BindingNodes},
		{"Feasible", c.Feasible, r.Feasible},
		{"PossibleAllocations", c.PossibleAllocations, r.PossibleAllocations},
	} {
		if p.got != p.want {
			bad = append(bad, fmt.Sprintf("%s = %d, uncached explore %d", p.name, p.got, p.want))
		}
	}
	if len(bad) > 0 {
		rec.mismatches = append(rec.mismatches, name+" replay: "+strings.Join(bad, "; "))
	}
}

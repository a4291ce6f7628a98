package core

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/bind"
	"repro/internal/bitset"
	"repro/internal/cover"
	"repro/internal/flex"
	"repro/internal/hgraph"
	"repro/internal/spec"
)

// evaluator is the per-run candidate-evaluation engine behind the
// explorers. It carries the three caches the cost-ordered scan can
// exploit across candidates:
//
//   - interned problem flattenings keyed by the canonical ECS
//     selection, so each elementary cluster activation is flattened
//     and compiled into a bind.Instance once per run instead of once
//     per (candidate × ECS);
//   - interned architecture flattenings keyed by the canonical
//     architecture selection, for the same reason, and interned views
//     (an architecture flattening restricted to a present-resource set)
//     compiled into a bind.View once each;
//   - a binding memo per (problem slot, architecture slot) pair, hung
//     off the problem slot, holding per view the solver outcome as a
//     dense assignment, with a monotone-dominance rule: a binding found
//     feasible under a resource set stays feasible under any superset
//     (extra resources only add present vertices and links, and the
//     timing tests depend only on the binding itself), so it is
//     replayed — and verified with Instance.Check — instead of rerun;
//     an ECS proven infeasible on a resource superset (by an untruncated
//     search) is skipped on any subset.
//
// The feasible-superset replay is gated on Options.MaxBindNodes == 0:
// a truncated search is not monotone (a larger search space can
// truncate before finding the solution the smaller one found), so with
// a node bound only exact-key hits — deterministic replays of the very
// same inputs — are reused, and infeasible-by-truncation outcomes are
// never used as dominance proofs.
//
// On top of the caches, the evaluator keeps cluster/activation/resource
// sets as dense bitsets (internal/bitset) over per-run indexers instead
// of map[hgraph.ID]bool, cutting the per-candidate allocation count.
// Bindings stay dense too: a bind.Binding map is built only for the
// behaviours implement returns.
//
// All caches are sharded and mutex-striped, so one evaluator is shared
// by the parallel explorer's workers; counters are atomics, folded into
// Stats.Cache at progress emissions and on completion.
//
// With Options.DisableCache the evaluator degrades to the exported
// Implement/Estimate functions — the uncached reference the
// differential tests compare against.
type evaluator struct {
	s      *spec.Spec
	opts   Options
	legacy bool

	sup *alloc.Supporter

	flats *shardMap // ECS selection string -> *probSlot
	archs *shardMap // arch selection string -> *flatSlot
	ecss  *shardMap // supportable-set key -> *ecsSlot
	views *shardMap // arch key + "\x00" + present key -> *viewSlot

	base CacheStats // counters carried over from Options.Resume

	flattenHits    atomic.Int64
	flattenMisses  atomic.Int64
	archHits       atomic.Int64
	archMisses     atomic.Int64
	bindExactHits  atomic.Int64
	bindReplayHits atomic.Int64
	bindInfeasHits atomic.Int64
	bindMisses     atomic.Int64
	supportReused  atomic.Int64
}

// newEvaluator builds the evaluation engine for one exploration run.
func newEvaluator(s *spec.Spec, opts Options) *evaluator {
	ev := &evaluator{s: s, opts: opts, legacy: opts.DisableCache}
	if ev.legacy {
		return ev
	}
	ev.sup = alloc.NewSupporter(s)
	ev.flats = newShardMap()
	ev.archs = newShardMap()
	ev.ecss = newShardMap()
	ev.views = newShardMap()
	if opts.Resume != nil {
		ev.base = opts.Resume.Stats.Cache
	}
	return ev
}

// snapshot reads the atomic counters into a CacheStats.
func (ev *evaluator) snapshot() CacheStats {
	return CacheStats{
		FlattenHits:        int(ev.flattenHits.Load()),
		FlattenMisses:      int(ev.flattenMisses.Load()),
		ArchFlattenHits:    int(ev.archHits.Load()),
		ArchFlattenMisses:  int(ev.archMisses.Load()),
		BindExactHits:      int(ev.bindExactHits.Load()),
		BindReplayHits:     int(ev.bindReplayHits.Load()),
		BindInfeasibleHits: int(ev.bindInfeasHits.Load()),
		BindMisses:         int(ev.bindMisses.Load()),
		SupportableReused:  int(ev.supportReused.Load()),
	}
}

// fold publishes the cache counters (continued from any Resume base)
// into the run's stats. Safe to call repeatedly; the counters are
// cumulative.
func (ev *evaluator) fold(st *Stats) {
	if ev.legacy {
		return
	}
	st.Cache = ev.base.plus(ev.snapshot())
}

// estimate computes the flexibility estimation for an allocation and
// returns the supportable-cluster set alongside, so the caller can hand
// it to implement and avoid the historical double computation. The
// boolean reports whether the set is valid (false on the legacy path).
func (ev *evaluator) estimate(a spec.Allocation) (float64, bitset.Set, bool) {
	if ev.legacy {
		return Estimate(ev.s, a, ev.opts), bitset.Set{}, false
	}
	sup := ev.sup.SupportableOf(a)
	return ev.flexOfBits(sup), sup, true
}

func (ev *evaluator) flexOfBits(set bitset.Set) float64 {
	act := flex.FromBits(set, ev.sup.Clusters)
	if ev.opts.Weighted {
		return flex.WeightedFlexibility(ev.s.Problem, act)
	}
	return flex.Flexibility(ev.s.Problem, act)
}

// implement is Implement through the caches. sup is the supportable set
// computed by estimate (haveSup false when the caller has none, e.g.
// the sampling explorers, which skip estimation, and Upgrade's base).
func (ev *evaluator) implement(a spec.Allocation, sup bitset.Set, haveSup bool, stats *Stats) *Implementation {
	if ev.legacy {
		return Implement(ev.s, a, ev.opts, stats)
	}
	if stats == nil {
		stats = &Stats{}
	}
	if haveSup {
		ev.supportReused.Add(1)
	} else {
		sup = ev.sup.SupportableOf(a)
	}
	avail := ev.sup.AvailOf(a)
	cix := ev.sup.Clusters
	rix := ev.sup.Resources

	feasible := bitset.New(cix.Len())
	var behaviours []Behaviour

	// Architecture configurations, through the interned flattenings.
	var views []*viewSlot
	a.EnumerateArchSelections(ev.s, func(sel hgraph.Selection) bool {
		key := sel.String()
		arch := ev.archFlat(key, sel)
		if !arch.ok {
			return true
		}
		present := bitset.New(rix.Len())
		for _, v := range arch.fg.Vertices {
			if i, ok := rix.Index(v.ID); ok && avail.Has(i) {
				present.Add(i)
			}
		}
		views = append(views, ev.viewFor(key+"\x00"+present.Key(), arch, present, sel))
		return true
	})

	// bound[i] is behaviours[i]'s binding, kept dense until the
	// behaviour is known to be returned.
	type denseBinding struct {
		inst   *bind.Instance
		assign []int32
	}
	var bound []denseBinding
	tested := 0
	maxECS := ev.opts.maxECS()
	list := ev.ecsList(sup)
	for i := range list {
		en := &list[i]
		tested++
		// Novelty: skip an ECS whose clusters are all covered already
		// (unless every behaviour is wanted).
		if !ev.opts.AllBehaviours && en.bits.SubsetOf(feasible) {
			if tested >= maxECS {
				break
			}
			continue
		}
		stats.ECSTested++
		if !en.prob.ok {
			if tested >= maxECS {
				break
			}
			continue
		}
		for _, vs := range views {
			if assign, ok := ev.bindFor(en.prob, vs, stats); ok {
				feasible.UnionWith(en.bits)
				behaviours = append(behaviours, Behaviour{ECS: en.e, ArchSelection: vs.sel})
				bound = append(bound, denseBinding{en.prob.inst, assign})
				break
			}
		}
		if tested >= maxECS {
			break
		}
	}

	implemented := flex.ActivatableSet(ev.s.Problem, feasible, cix)
	f := ev.flexOfBits(implemented)
	if f <= 0 {
		return nil
	}
	clusters := cix.IDs(implemented)
	kept := behaviours[:0]
	for k, b := range behaviours {
		all := true
		for _, c := range b.ECS.Clusters {
			if i, ok := cix.Index(c); !ok || !implemented.Has(i) {
				all = false
				break
			}
		}
		if all {
			b.Binding = bound[k].inst.Binding(bound[k].assign)
			kept = append(kept, b)
		}
	}
	return &Implementation{
		Allocation:  a.Clone(),
		Cost:        a.Cost(ev.s),
		Flexibility: f,
		Clusters:    clusters,
		Behaviours:  kept,
	}
}

// ecsEntry is one elementary cluster activation of a supportable set,
// with everything the per-candidate loop needs precomputed: the
// activated-cluster bitset and the interned problem slot.
type ecsEntry struct {
	e    cover.ECS
	bits bitset.Set
	prob *probSlot
}

// ecsSlot interns the ECS enumeration of one supportable-cluster set.
type ecsSlot struct {
	once sync.Once
	list []ecsEntry
}

// ecsList returns the interned ECS enumeration for a supportable set.
// The enumeration order is deterministic in the set, so candidates with
// equal supportable sets iterate byte-identical lists — the cover walk,
// the selection keys and the cluster bitsets are paid once per distinct
// set instead of once per candidate. The entries are shared and must be
// treated as read-only.
func (ev *evaluator) ecsList(sup bitset.Set) []ecsEntry {
	v, _ := ev.ecss.getOrCreate(sup.Key(), func() any { return &ecsSlot{} })
	slot := v.(*ecsSlot)
	slot.once.Do(func() {
		cix := ev.sup.Clusters
		cover.EnumerateFunc(ev.s.Problem, func(id hgraph.ID) bool {
			i, ok := cix.Index(id)
			return ok && sup.Has(i)
		}, func(e cover.ECS) bool {
			en := ecsEntry{e: e, bits: bitset.New(cix.Len())}
			for _, c := range e.Clusters {
				if i, ok := cix.Index(c); ok {
					en.bits.Add(i)
				}
			}
			en.prob = ev.flatProblem(e.Selection.String(), e.Selection)
			slot.list = append(slot.list, en)
			return true
		})
	})
	return slot.list
}

// viewSlot interns one architecture view: an architecture flattening
// restricted to a present-resource set, compiled for the binder.
type viewSlot struct {
	once    sync.Once
	arch    *flatSlot
	sel     hgraph.Selection
	present bitset.Set
	view    *bind.View
}

// viewFor returns the interned view for an (architecture selection,
// present-resource set) pair. Distinct allocations frequently induce
// the same present set on a given flattening — resources outside the
// selected design do not change the view — so the compilation is
// shared across them.
func (ev *evaluator) viewFor(key string, arch *flatSlot, present bitset.Set, sel hgraph.Selection) *viewSlot {
	v, _ := ev.views.getOrCreate(key, func() any { return &viewSlot{} })
	slot := v.(*viewSlot)
	slot.once.Do(func() {
		slot.arch, slot.sel, slot.present = arch, sel.Clone(), present
		slot.view = bind.NewView(ev.s, arch.fg, present, ev.sup.Resources)
	})
	return slot
}

// flatSlot interns one architecture flattening; the Once gives
// single-flight construction under concurrent lookups.
type flatSlot struct {
	once sync.Once
	fg   *hgraph.FlatGraph
	ok   bool
}

// probSlot interns one problem flattening, compiled into a binding
// instance, and carries the binding memos of its ECS, one per
// architecture slot it has been bound under.
type probSlot struct {
	once  sync.Once
	inst  *bind.Instance
	ok    bool
	memos sync.Map // *flatSlot -> *bindMemo
}

// flatProblem returns the interned problem slot for an ECS selection,
// flattening and compiling on first use.
func (ev *evaluator) flatProblem(key string, sel hgraph.Selection) *probSlot {
	v, created := ev.flats.getOrCreate(key, func() any { return &probSlot{} })
	if created {
		ev.flattenMisses.Add(1)
	} else {
		ev.flattenHits.Add(1)
	}
	slot := v.(*probSlot)
	slot.once.Do(func() {
		if fg, err := ev.s.Problem.Flatten(sel); err == nil {
			slot.inst, slot.ok = bind.Compile(ev.s, fg, ev.sup.Resources), true
		}
	})
	return slot
}

// archFlat returns the interned partial architecture flattening for an
// architecture selection.
func (ev *evaluator) archFlat(key string, sel hgraph.Selection) *flatSlot {
	v, created := ev.archs.getOrCreate(key, func() any { return &flatSlot{} })
	if created {
		ev.archMisses.Add(1)
	} else {
		ev.archHits.Add(1)
	}
	slot := v.(*flatSlot)
	slot.once.Do(func() {
		if fg, err := ev.s.Arch.FlattenPartial(sel); err == nil {
			slot.fg, slot.ok = fg, true
		}
	})
	return slot
}

// bindOutcome is one memoized solver verdict for a present-resource
// set under a fixed (ECS, arch selection) pair.
type bindOutcome struct {
	present bitset.Set
	ok      bool
	assign  []int32 // shared, read-only
	// proof reports the infeasibility was established by an untruncated
	// search and may therefore be used as a subset-dominance proof.
	proof bool
}

// bindMemo collects the outcomes of one (ECS, arch selection) pair.
type bindMemo struct {
	mu         sync.Mutex
	exact      map[*viewSlot]*bindOutcome
	feasible   []*bindOutcome
	infeasible []*bindOutcome
}

// memo returns the binding memo of the slot's ECS under arch.
func (ps *probSlot) memo(arch *flatSlot) *bindMemo {
	if m, ok := ps.memos.Load(arch); ok {
		return m.(*bindMemo)
	}
	m, _ := ps.memos.LoadOrStore(arch, &bindMemo{exact: map[*viewSlot]*bindOutcome{}})
	return m.(*bindMemo)
}

// bindFor decides binding feasibility of the ECS of ps on the view vs
// through the memo: exact view recurrence replays the stored verdict; a
// feasible binding under a subset is replayed and verified under the
// present superset (unbounded solver only); an infeasibility proven on
// a superset dominates the present subset. Only on a miss does the
// solver run, and its outcome is stored. The returned assignment is
// shared and must not be modified.
func (ev *evaluator) bindFor(ps *probSlot, vs *viewSlot, stats *Stats) ([]int32, bool) {
	m := ps.memo(vs.arch)

	m.mu.Lock()
	if o, ok := m.exact[vs]; ok {
		m.mu.Unlock()
		ev.bindExactHits.Add(1)
		return o.assign, o.ok
	}
	for _, o := range m.infeasible {
		if o.proof && vs.present.SubsetOf(o.present) {
			m.mu.Unlock()
			ev.bindInfeasHits.Add(1)
			return nil, false
		}
	}
	var replay *bindOutcome
	if ev.opts.MaxBindNodes == 0 {
		for _, o := range m.feasible {
			if o.present.SubsetOf(vs.present) {
				replay = o
				break
			}
		}
	}
	m.mu.Unlock()

	bopts := bind.Options{Timing: ev.opts.Timing, MaxNodes: ev.opts.MaxBindNodes}
	if replay != nil {
		// Monotone dominance: the binding stays feasible when resources
		// are only added. Verify anyway — Check is far cheaper than the
		// solver — and fall back to a full solve if it ever disagrees.
		if ps.inst.Check(vs.view, replay.assign, bopts) == nil {
			ev.bindReplayHits.Add(1)
			out := &bindOutcome{present: vs.present, ok: true, assign: replay.assign}
			m.mu.Lock()
			m.exact[vs] = out
			m.mu.Unlock()
			return replay.assign, true
		}
	}

	ev.bindMisses.Add(1)
	stats.BindingRuns++
	sol, ok := ps.inst.Solve(vs.view, bopts)
	stats.BindingNodes += sol.Nodes
	out := &bindOutcome{present: vs.present, ok: ok, assign: sol.Assign}
	if !ok {
		out.proof = !sol.Truncated
	}
	m.mu.Lock()
	m.exact[vs] = out
	if ok {
		m.feasible = append(m.feasible, out)
	} else if out.proof {
		m.infeasible = append(m.infeasible, out)
	}
	m.mu.Unlock()
	return sol.Assign, ok
}

// shardMap is a mutex-striped string-keyed map shared by the parallel
// explorer's workers; striping keeps contention off the hot path.
type shardMap struct {
	seed   maphash.Seed
	shards [32]shard
}

type shard struct {
	mu sync.Mutex
	m  map[string]any
}

func newShardMap() *shardMap {
	sm := &shardMap{seed: maphash.MakeSeed()}
	for i := range sm.shards {
		sm.shards[i].m = map[string]any{}
	}
	return sm
}

// getOrCreate returns the value under key, creating it with mk while
// holding only the shard's lock. The boolean reports creation (a cache
// miss). mk must be cheap; expensive construction belongs behind a
// sync.Once in the stored value.
func (sm *shardMap) getOrCreate(key string, mk func() any) (any, bool) {
	sh := &sm.shards[maphash.String(sm.seed, key)%uint64(len(sm.shards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if v, ok := sh.m[key]; ok {
		return v, false
	}
	v := mk()
	sh.m[key] = v
	return v, true
}

package bind

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/bitset"
	"repro/internal/hgraph"
	"repro/internal/sched"
	"repro/internal/spec"
)

// Instance is the binding problem of one problem flattening, compiled
// against a resource indexer: per flat vertex its mapping edges as
// (resource index, latency) pairs in resource-ID order, its period and
// its adjacency, all in index space. Compiling once lets a caller that
// binds the same flattening onto many architecture views (the
// exploration hot path) search and verify without touching the
// specification's string-keyed maps again. An Instance is immutable
// and safe for concurrent use.
type Instance struct {
	rix    indexer
	ids    []hgraph.ID // flat vertices, in fp.Vertices order
	period []float64
	rank   []int32 // position of ids[i] in ID order: the MRV tie-break
	// Vertex i's mapping edges are cands[candAt[i]:candAt[i+1]] and its
	// neighbours adj[adjAt[i]:adjAt[i+1]].
	cands  []cand
	candAt []int32
	adj    []int32
	adjAt  []int32
	edges  [][2]int32 // fp.Edges in index space, for Check
}

// indexer numbers the resources an Instance can bind to:
// *bitset.Indexer for a run, oneOff for a single call of Find or Check.
type indexer interface {
	Len() int
	Index(id hgraph.ID) (int, bool)
	At(i int) hgraph.ID
}

// cand is one mapping edge of a flat vertex.
type cand struct {
	r   int32
	lat float64
}

// Compile builds the instance of fp over rix. Mapping edges onto
// resources rix does not index can never be bound and are dropped.
func Compile(s *spec.Spec, fp *hgraph.FlatGraph, rix *bitset.Indexer[hgraph.ID]) *Instance {
	return compile(s, fp, rix)
}

func compile(s *spec.Spec, fp *hgraph.FlatGraph, rix indexer) *Instance {
	n := len(fp.Vertices)
	ms := 0
	for _, v := range fp.Vertices {
		ms += len(s.MappingsFor(v.ID))
	}
	ints := make([]int32, 5*n+2) // rank, candAt, adjAt, and two scratch rows
	in := &Instance{
		rix:    rix,
		ids:    make([]hgraph.ID, n),
		period: make([]float64, n),
		rank:   ints[:n:n],
		cands:  make([]cand, 0, ms),
		candAt: ints[n : 2*n+1 : 2*n+1],
		adjAt:  ints[2*n+1 : 3*n+2 : 3*n+2],
		edges:  make([][2]int32, 0, len(fp.Edges)),
	}
	byID, fill := ints[3*n+2:4*n+2], ints[4*n+2:]
	for i, v := range fp.Vertices {
		in.ids[i] = v.ID
		in.period[i] = s.Period(v.ID)
		for _, m := range s.MappingsFor(v.ID) {
			if r, ok := rix.Index(m.Resource); ok {
				in.cands = append(in.cands, cand{r: int32(r), lat: m.Latency})
			}
		}
		in.candAt[i+1] = int32(len(in.cands))
		byID[i] = int32(i)
	}
	slices.SortFunc(byID, func(a, b int32) int { return cmp.Compare(in.ids[a], in.ids[b]) })
	for k, i := range byID {
		in.rank[i] = int32(k)
	}
	pos := func(id hgraph.ID) (int32, bool) {
		k, ok := slices.BinarySearchFunc(byID, id, func(i int32, id hgraph.ID) int { return cmp.Compare(in.ids[i], id) })
		if !ok {
			return 0, false
		}
		return byID[k], true
	}
	for _, e := range fp.Edges {
		i, ok1 := pos(e.From)
		j, ok2 := pos(e.To)
		if ok1 && ok2 {
			in.edges = append(in.edges, [2]int32{i, j})
			in.adjAt[i+1]++
			in.adjAt[j+1]++
		}
	}
	for i := 0; i < n; i++ {
		in.adjAt[i+1] += in.adjAt[i]
	}
	in.adj = make([]int32, in.adjAt[n])
	copy(fill, in.adjAt[:n])
	for _, e := range in.edges {
		i, j := e[0], e[1]
		in.adj[fill[i]] = j
		fill[i]++
		in.adj[fill[j]] = i
		fill[j]++
	}
	return in
}

// candsOf returns vertex i's mapping edges.
func (in *Instance) candsOf(i int32) []cand { return in.cands[in.candAt[i]:in.candAt[i+1]] }

// adjOf returns vertex i's neighbours in the problem graph.
func (in *Instance) adjOf(i int32) []int32 { return in.adj[in.adjAt[i]:in.adjAt[i+1]] }

// Binding materializes a dense assignment (a resource index per flat
// vertex, as Solution.Assign holds) as a Binding.
func (in *Instance) Binding(assign []int32) Binding {
	b := make(Binding, len(assign))
	for i, r := range assign {
		b[in.ids[i]] = in.rix.At(int(r))
	}
	return b
}

// View is one architecture view compiled over a resource indexer: the
// present resources as a bitset and, per resource, the bitset row of
// the resources it can communicate with under the paper's rule 3 (the
// same resource, a direct link, or one hop through a bus). A View built
// by NewView is immutable and safe for concurrent use.
type View struct {
	present bitset.Set
	stride  int      // words per row
	comm    []uint64 // row r at [r*stride, (r+1)*stride)
	// ask, when set, decides a pair on first use and known marks the
	// pairs decided: the one-off views of Find and Check, which would
	// otherwise ask an ArchView about pairs the search never tries.
	ask   func(r1, r2 int32) bool
	known []uint64
}

// NewView compiles the view of the architecture flattening fg
// restricted to present, a set over rix of vertices of fg — what
// Spec.ArchViewFromFlat builds as maps, without the maps.
func NewView(s *spec.Spec, fg *hgraph.FlatGraph, present bitset.Set, rix *bitset.Indexer[hgraph.ID]) *View {
	v := newView(rix.Len(), present)
	for _, e := range fg.Edges {
		i, ok1 := rix.Index(e.From)
		j, ok2 := rix.Index(e.To)
		if ok1 && ok2 && present.Has(i) && present.Has(j) {
			// Links are bidirectional, as in ArchViewFromFlat.
			v.link(v.comm, int32(i), int32(j))
			v.link(v.comm, int32(j), int32(i))
		}
	}
	// Close the direct links into communication rows: every present
	// resource reaches itself, its neighbours, and the neighbours of
	// each neighbouring bus.
	adj := v.comm
	v.comm = make([]uint64, len(adj))
	present.ForEach(func(r int) bool {
		out := v.row(v.comm, r)
		copy(out, v.row(adj, r))
		out[r>>6] |= 1 << (uint(r) & 63)
		for wi, w := range v.row(adj, r) {
			for ; w != 0; w &= w - 1 {
				if b := wi<<6 | bits.TrailingZeros64(w); s.IsComm(rix.At(b)) {
					for k, bw := range v.row(adj, b) {
						out[k] |= bw
					}
				}
			}
		}
		return true
	})
	return v
}

// viewOf wraps an already built ArchView for an instance compiled over
// an indexer of av's present resources: pairs are asked of av on first
// use, so a one-off search costs no more ArchView queries than it
// makes. The result is private to one call.
func viewOf(av *spec.ArchView, rix indexer) *View {
	n := rix.Len()
	present := bitset.New(n)
	for i := 0; i < n; i++ {
		present.Add(i)
	}
	v := newView(n, present)
	v.known = make([]uint64, len(v.comm))
	v.ask = func(r1, r2 int32) bool { return av.CanCommunicate(rix.At(int(r1)), rix.At(int(r2))) }
	return v
}

func newView(n int, present bitset.Set) *View {
	stride := (n + 63) / 64
	return &View{present: present, stride: stride, comm: make([]uint64, n*stride)}
}

func (v *View) row(rows []uint64, r int) []uint64 { return rows[r*v.stride : (r+1)*v.stride] }

func (v *View) link(rows []uint64, r1, r2 int32) {
	rows[int(r1)*v.stride+int(r2)>>6] |= 1 << (uint(r2) & 63)
}

func (v *View) has(rows []uint64, r1, r2 int32) bool {
	return rows[int(r1)*v.stride+int(r2)>>6]&(1<<(uint(r2)&63)) != 0
}

// canComm reports whether processes bound to r1 and r2 can communicate.
func (v *View) canComm(r1, r2 int32) bool {
	if v.ask != nil && !v.has(v.known, r1, r2) {
		v.decide(r1, r2)
	}
	return v.has(v.comm, r1, r2)
}

// decide asks a lazy view about a pair. Links are bidirectional, so
// the answer holds both ways.
func (v *View) decide(r1, r2 int32) {
	v.link(v.known, r1, r2)
	v.link(v.known, r2, r1)
	if v.ask(r1, r2) {
		v.link(v.comm, r1, r2)
		v.link(v.comm, r2, r1)
	}
}

// Solution is the dense result of a search: the binding as one
// resource index per flat vertex, and the search statistics of Result.
type Solution struct {
	Assign    []int32
	Nodes     int
	Truncated bool
}

// Solve searches for a feasible timed binding of the instance onto the
// view — the search Find describes, in index space.
func (in *Instance) Solve(v *View, opts Options) (Solution, bool) {
	return in.search(v, opts, false)
}

// search is the one backtracking body behind Solve and the
// branch-and-bound of FindMinLatency. Candidates are the mapping edges
// onto present resources; processes are bound most-constrained first
// (ties by ID); each assignment tried counts one node, and MaxNodes
// stops the search. With minimize the search continues past the first
// solution and prunes any partial binding whose latency plus the
// cheapest completion cannot beat the best found, so the first optimum
// found wins ties.
func (in *Instance) search(v *View, opts Options, minimize bool) (Solution, bool) {
	var sol Solution
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	if !sc.reset(in, v, opts) {
		return sol, false
	}
	if minimize {
		sc.bound()
	}
	found := sc.solve(0, 0)
	sol.Nodes, sol.Truncated = sc.nodes, sc.truncated
	if minimize {
		found = sc.best >= 0
		copy(sc.assign, sc.bestAssign)
	}
	if !found {
		return sol, false
	}
	sol.Assign = append([]int32(nil), sc.assign...)
	return sol, true
}

// scratch is the per-call state of a search, recycled through
// scratchPool so a solver call allocates only its result.
type scratch struct {
	in   *Instance
	v    *View
	opts Options

	buf    []cand
	cands  [][]cand // candidates on present resources, per vertex
	order  []int32  // MRV binding order
	assign []int32  // resource index per vertex, -1 = unbound
	tasks  [][]sched.Task
	nodes  int

	truncated  bool
	minimize   bool
	suffix     []float64 // cheapest completion from search depth k
	best       float64   // best total latency, -1 = none yet
	bestAssign []int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// reset prepares the scratch for a search of in on v. It reports false
// when some process has no mapping edge onto a present resource.
func (sc *scratch) reset(in *Instance, v *View, opts Options) bool {
	n := len(in.ids)
	sc.in, sc.v, sc.opts = in, v, opts
	sc.nodes, sc.truncated, sc.minimize = 0, false, false
	// Filter into one buffer, then slice it per vertex once it has
	// stopped growing.
	sc.buf = sc.buf[:0]
	sc.order = resize(sc.order, n) // end offsets into buf, for now
	for i := range in.ids {
		lo := len(sc.buf)
		for _, c := range in.candsOf(int32(i)) {
			if v.present.Has(int(c.r)) {
				sc.buf = append(sc.buf, c)
			}
		}
		if len(sc.buf) == lo {
			return false
		}
		sc.order[i] = int32(len(sc.buf))
	}
	sc.cands = resize(sc.cands, n)
	lo := int32(0)
	for i, hi := range sc.order {
		sc.cands[i] = sc.buf[lo:hi:hi]
		lo = hi
	}
	sc.assign = resize(sc.assign, n)
	for i := range sc.order {
		sc.order[i] = int32(i)
		sc.assign[i] = -1
	}
	// Most-constrained first, ties by ID (a stable insertion sort: the
	// keys are distinct, so any correct sort yields this order).
	for i := 1; i < n; i++ {
		for j := i; j > 0 && sc.before(sc.order[j], sc.order[j-1]); j-- {
			sc.order[j-1], sc.order[j] = sc.order[j], sc.order[j-1]
		}
	}
	sc.tasks = resize(sc.tasks, in.rix.Len())
	for r := range sc.tasks {
		sc.tasks[r] = sc.tasks[r][:0]
	}
	return true
}

func (sc *scratch) before(a, b int32) bool {
	if la, lb := len(sc.cands[a]), len(sc.cands[b]); la != lb {
		return la < lb
	}
	return sc.in.rank[a] < sc.in.rank[b]
}

// bound switches the search to branch-and-bound: suffix[k] sums the
// cheapest candidate latency of the processes bound at depth k and
// later.
func (sc *scratch) bound() {
	n := len(sc.order)
	sc.minimize, sc.best = true, -1
	sc.bestAssign = resize(sc.bestAssign, n)
	sc.suffix = resize(sc.suffix, n+1)
	sc.suffix[n] = 0
	for k := n - 1; k >= 0; k-- {
		cs := sc.cands[sc.order[k]]
		m := cs[0].lat
		for _, c := range cs {
			if c.lat < m {
				m = c.lat
			}
		}
		sc.suffix[k] = sc.suffix[k+1] + m
	}
}

// solve binds the processes from search depth k on; acc is the latency
// of the binding so far. It reports a complete binding (never, when
// minimizing: the best one is recorded instead).
func (sc *scratch) solve(k int, acc float64) bool {
	if sc.minimize && sc.best >= 0 && acc+sc.suffix[k] >= sc.best {
		return false
	}
	if k == len(sc.order) {
		if !sc.minimize {
			return true
		}
		sc.best = acc
		copy(sc.bestAssign, sc.assign)
		return false
	}
	idx := sc.order[k]
	period := sc.in.period[idx]
	for _, c := range sc.cands[idx] {
		if sc.opts.MaxNodes > 0 && sc.nodes >= sc.opts.MaxNodes {
			sc.truncated = true
			return false
		}
		sc.nodes++
		// Communication feasibility against already-bound neighbours.
		ok := true
		for _, nb := range sc.in.adjOf(idx) {
			if r := sc.assign[nb]; r >= 0 && !sc.v.canComm(c.r, r) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		// Timing feasibility of the partial load on c.r. All policies
		// are monotone in the task set, so pruning is sound.
		if period > 0 {
			tasks := append(sc.tasks[c.r], sched.Task{ID: string(sc.in.ids[idx]), WCET: c.lat, Period: period})
			sc.tasks[c.r] = tasks
			if !sc.opts.Timing.test(tasks) {
				sc.tasks[c.r] = tasks[:len(tasks)-1]
				continue
			}
		}
		sc.assign[idx] = c.r
		if sc.solve(k+1, acc+c.lat) {
			return true
		}
		sc.assign[idx] = -1
		if period > 0 {
			sc.tasks[c.r] = sc.tasks[c.r][:len(sc.tasks[c.r])-1]
		}
	}
	return false
}

// Check verifies a dense assignment (one resource index per flat
// vertex, -1 = unbound) against the paper's feasibility rules and the
// timing policy, like the package-level Check: every process is bound
// through a mapping edge onto a present resource, every dependence can
// communicate, and every resource's load — its tasks in flat-vertex
// order — passes the timing test.
func (in *Instance) Check(v *View, assign []int32, opts Options) error {
	for i, r := range assign {
		if r < 0 {
			return fmt.Errorf("bind: process %q unbound", in.ids[i])
		}
		if in.latency(i, r) < 0 {
			return fmt.Errorf("bind: no mapping edge %q=>%q", in.ids[i], in.rix.At(int(r)))
		}
		if !v.present.Has(int(r)) {
			return fmt.Errorf("bind: resource %q not activated", in.rix.At(int(r)))
		}
	}
	for _, e := range in.edges {
		r1, r2 := assign[e[0]], assign[e[1]]
		if !v.canComm(r1, r2) {
			return fmt.Errorf("bind: dependence %s->%s unroutable between %q and %q",
				in.ids[e[0]], in.ids[e[1]], in.rix.At(int(r1)), in.rix.At(int(r2)))
		}
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.tasks = resize(sc.tasks, in.rix.Len())
	for r := range sc.tasks {
		sc.tasks[r] = sc.tasks[r][:0]
	}
	for i, r := range assign {
		if period := in.period[i]; period > 0 {
			sc.tasks[r] = append(sc.tasks[r], sched.Task{ID: string(in.ids[i]), WCET: in.latency(i, r), Period: period})
		}
	}
	for r, tasks := range sc.tasks {
		if len(tasks) > 0 && !opts.Timing.test(tasks) {
			return fmt.Errorf("bind: resource %q fails timing policy %v (utilization %.3f)",
				in.rix.At(r), opts.Timing, sched.Utilization(tasks))
		}
	}
	return nil
}

// latency returns the latency of vertex i's mapping edge onto r, or -1
// when there is none.
func (in *Instance) latency(i int, r int32) float64 {
	for _, c := range in.candsOf(int32(i)) {
		if c.r == r {
			return c.lat
		}
	}
	return -1
}

// resize returns s with length n, reusing its array when large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

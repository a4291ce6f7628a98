package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/spec"
)

// workload is one named input family. setup builds the inputs from the
// seed and brings the program up; everything it does is timed as
// setup_s.
type workload struct {
	name  string
	setup func(seed int64, dir string) (runner, error)
}

// runner is a set-up workload instance.
type runner interface {
	// references computes the reference front of every input with the
	// uncached evaluator (Options.DisableCache). It is not timed.
	// sequential runs them one at a time, so their wall times are
	// comparable to the replay's.
	references(sequential bool) error
	// measure runs operations until the deadline, recording each.
	measure(deadline time.Time, obs *observer)
	// replay walks every input through the layers once, under tr.
	replay(tr *tracer, rec *replayRecord)
	// size is the number of operations a replay runs; limit keeps only
	// the first n of them, before references is called.
	size() int
	limit(n int)
	// describe records the inputs for the run's context line.
	describe() map[string]any
	close()
}

var workloads = map[string]workload{
	"family":  {name: "family", setup: setupFamily},
	"scaled":  {name: "scaled", setup: setupScaled},
	"service": {name: "service", setup: setupService},
}

// Pool sizes: each run rotates over this many generated specifications.
// A pool averages the per-specification cost spread (a factor of ~3
// across generator seeds on family) so that runs at different seeds
// measure comparable work; family's pool is about what one run
// explores.
const (
	familyPool  = 160
	scaledPool  = 48
	servicePool = 64
)

// familyParams are the depth-2 generator parameters of the family
// workload: 11 allocatable units (2048 subsets) over a deep problem
// graph, so evaluation, not candidate production, does the work.
func familyParams(seed int64) models.SyntheticParams {
	return models.SyntheticParams{
		Seed: seed, Apps: 4, Depth: 2, Branch: 3, Vertices: 3,
		Processors: 2, ASICs: 3, Designs: 2, Buses: 4,
		TimedFraction: 0.4, AccelOnlyFraction: 0.3,
	}
}

// scaledUnits is the scaled workload's unit count: above the 20-unit
// switchover, so the auto enumerator takes the symbolic walk.
const scaledUnits = 22

// scaledWorkers is the scaled workload's pipeline width (the parallel
// explorer's workers; auto producers then shard the walk in two).
const scaledWorkers = 2

// generatorSeeds derives n generator seeds from the run seed.
func generatorSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(rng.Int31())
	}
	return out
}

// deck is a seeded permutation of 0..n-1: the order operations visit
// the inputs in, cyclically.
func deck(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(n)
}

// poolRunner drives the family and scaled workloads: one exploration
// per operation, rotating over a pool of generated specifications.
type poolRunner struct {
	specs    []*spec.Spec
	order    []int
	workers  int  // 1 = sequential ExploreContext
	symbolic bool // the replay's enumerator (what auto picks for the pool)
	refs     []reference
	next     int
	skipped  int // generated specifications left out of the pool
}

// reference is one input's uncached reference exploration.
type reference struct {
	front front
	stats core.Stats
	wall  time.Duration
}

func setupFamily(seed int64, _ string) (runner, error) {
	r := &poolRunner{workers: 1, order: deck(seed, familyPool)}
	for _, g := range generatorSeeds(seed, familyPool) {
		r.specs = append(r.specs, models.Synthetic(familyParams(g)))
	}
	return r, nil
}

// setupScaled draws bound-tight specifications only (see boundTight):
// about one generated 22-unit specification in forty is not, and its
// exploration implements nearly every candidate — 15 to 20 times the
// work of the others, and the opposite of the production- and
// estimate-heavy mix this workload stands for. The count left out is
// recorded in the run's context.
func setupScaled(seed int64, _ string) (runner, error) {
	r := &poolRunner{workers: scaledWorkers, symbolic: true, order: deck(seed, scaledPool)}
	rng := rand.New(rand.NewSource(seed))
	for len(r.specs) < scaledPool {
		s := models.Synthetic(models.ScaledSynthetic(int64(rng.Int31()), scaledUnits))
		if !boundTight(s) {
			r.skipped++
			continue
		}
		r.specs = append(r.specs, s)
	}
	return r, nil
}

// boundTight reports whether the specification's maximum flexibility —
// the flexibility estimate of the full allocation — is implementable,
// which one core.Implement of the full allocation decides. On a
// specification where it is not, the estimate overstates every large
// allocation, the flexibility bound cannot prune them, and EXPLORE
// implements nearly every candidate.
func boundTight(s *spec.Spec) bool {
	full := spec.Allocation{}
	for _, u := range alloc.Units(s) {
		full[u.ID] = true
	}
	im := core.Implement(s, full, core.Options{}, nil)
	return im != nil && im.Flexibility == core.MaxFlexibility(s, core.Options{})
}

func (r *poolRunner) references(sequential bool) error {
	r.refs = make([]reference, len(r.specs))
	forEach(len(r.specs), sequential, func(i int) {
		r.refs[i] = referenceOf(r.specs[i])
	})
	return nil
}

// referenceOf explores s with the uncached evaluator.
func referenceOf(s *spec.Spec) reference {
	t0 := time.Now()
	res := core.Explore(s, core.Options{DisableCache: true})
	return reference{front: frontOf(res), stats: res.Stats, wall: time.Since(t0)}
}

// forEach runs fn(0..n-1), on two goroutines unless sequential.
func forEach(n int, sequential bool, fn func(i int)) {
	if sequential {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// explore runs one timed operation on input i.
func (r *poolRunner) explore(i int) *core.Result {
	ctx := context.Background()
	if r.workers > 1 {
		return core.ExploreParallelContext(ctx, r.specs[i], core.Options{}, r.workers, 0)
	}
	return core.ExploreContext(ctx, r.specs[i], core.Options{})
}

func (r *poolRunner) measure(deadline time.Time, obs *observer) {
	for time.Now().Before(deadline) {
		i := r.order[r.next%len(r.order)]
		r.next++
		t0 := time.Now()
		res := r.explore(i)
		lat := time.Since(t0)
		var err error
		switch {
		case res.Interrupted:
			err = fmt.Errorf("%s: interrupted (%s)", r.specs[i].Name, res.Reason)
		default:
			err = r.refs[i].front.check(r.specs[i].Name, frontOf(res))
		}
		obs.record(lat, err, &res.Stats)
	}
}

func (r *poolRunner) replay(tr *tracer, rec *replayRecord) {
	for i, s := range r.specs {
		rec.add(s.Name, replayExplore(tr, s, replayOptions{symbolic: r.symbolic}), r.refs[i])
	}
}

func (r *poolRunner) size() int { return len(r.specs) }

func (r *poolRunner) limit(n int) {
	r.specs = r.specs[:n]
	kept := r.order[:0]
	for _, i := range r.order {
		if i < n {
			kept = append(kept, i)
		}
	}
	r.order = kept
}

func (r *poolRunner) describe() map[string]any {
	return map[string]any{"specs": len(r.specs), "skipped_not_bound_tight": r.skipped}
}

func (r *poolRunner) close() {}

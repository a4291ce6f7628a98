package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/server"
)

// The traced replay runs at the run's seed over every input, then at
// the next seed over the first quarter of that seed's inputs, so a seed
// whose layer mix departs from the workload's purpose shows in the
// per-seed shares without doubling the run's spans.
const secondSeedShare = 4

// traced is the per-layer run. It never reports end-to-end metrics: a
// profiled run of the cached program gives the module CPU shares, the
// cache and pipeline counters (from the returned Stats) and the runtime
// counters; the span replay at two seeds gives each layer's self time,
// checked against the uncached reference explorations.
//
// The CPU profile and the spans of the run stay in outDir for
// inspection, replacing those of the workload's previous traced run.
func traced(w workload, cfg config, outDir string) (*report, error) {
	rep := newReport()
	r, err := w.setup(cfg.seed, cfg.workdir)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	defer r.close()
	if err := r.references(true); err != nil {
		return nil, err
	}

	rep.context["inputs"] = r.describe()
	prof := filepath.Join(outDir, "cpu-"+w.name+".pprof")
	obs, win, err := profiledWindow(r, cfg.seconds, prof)
	if err != nil {
		return nil, err
	}
	rep.attempted += obs.attempted
	rep.failed += obs.failed
	rep.failures = append(rep.failures, obs.failures...)
	if obs.attempted == 0 {
		return nil, fmt.Errorf("%s: no operation completed in the profiled window", w.name)
	}
	shares, sampled, err := cpuShares(prof)
	if err != nil {
		return nil, err
	}
	rep.context["profile_samples_ms"] = float64(sampled) / float64(time.Millisecond)
	for _, m := range profiledModules {
		rep.set(m+".cpu_share", shares[m], "ratio", obs.attempted)
	}
	rep.set("runtime.gc_share", shares["runtime.gc"], "ratio", obs.attempted)
	rep.set("other.cpu_share", shares["other"], "ratio", obs.attempted)
	cachedPath(rep, obs, win)

	var c server.Counters // zero for the workloads without a server
	if sr, ok := r.(*serviceRunner); ok {
		if c, err = sr.counters(); err != nil {
			return nil, err
		}
	}
	rep.set("server.rejected", float64(c.RejectedFull+c.RejectedInvalid+c.RejectedLint+c.RejectedDraining), "count", 1)
	rep.set("server.shed", float64(c.Shed), "count", 1)
	rep.set("server.checkpoint_failures", float64(c.CheckpointFailures), "count", 1)

	var recs []*replayRecord
	perSeed := map[string]any{}
	for off := int64(0); off < 2; off++ {
		seed, rr := cfg.seed+off, r
		if off != 0 {
			if rr, err = w.setup(seed, cfg.workdir); err != nil {
				return nil, fmt.Errorf("%s: setup: %w", w.name, err)
			}
			defer rr.close()
			rr.limit((rr.size() + secondSeedShare - 1) / secondSeedShare)
			if err := rr.references(true); err != nil {
				return nil, err
			}
		}
		tr := newTracer()
		rec := &replayRecord{tr: tr, seed: seed}
		rr.replay(tr, rec)
		rep.attempted += rec.attempted
		for _, m := range rec.mismatches {
			rep.fail("seed %d: %s", seed, m)
		}
		perSeed[fmt.Sprint(seed)] = seedDetail(rec)
		recs = append(recs, rec)
	}
	if err := writeSpans(filepath.Join(outDir, "spans-"+w.name+".txt.gz"), recs); err != nil {
		return nil, err
	}
	rep.detail["replay"] = perSeed
	layerMetrics(rep, recs)
	return rep, nil
}

// cachedPath derives the counters of the cached program from the
// profiled run's returned Stats, paired with each operation's latency.
func cachedPath(rep *report, obs *observer, win window) {
	n := len(obs.stats)
	var scanned, cands, merge, stalls, hw, batches, publishes float64
	var flatH, flatM, archH, archM, bindH, bindM float64
	var prodBusy, prodWall, busy, workWall float64
	for i, st := range obs.stats {
		latNs := obs.lat[i] * float64(time.Millisecond)
		p := st.Pipeline
		scanned += float64(st.Scanned)
		cands += float64(st.PossibleAllocations)
		merge += float64(p.MergeStalls)
		stalls += float64(p.CommitStalls)
		hw += float64(p.QueueHighWater)
		batches += float64(p.BatchesCommitted)
		publishes += float64(p.BoundPublishes)
		prodBusy += float64(p.ProducerBusyNanos)
		prodWall += latNs * float64(p.Producers)
		busy += float64(p.BusyNanos)
		workWall += latNs * float64(p.Workers)
		c := st.Cache
		flatH += float64(c.FlattenHits)
		flatM += float64(c.FlattenMisses)
		archH += float64(c.ArchFlattenHits)
		archM += float64(c.ArchFlattenMisses)
		bindH += float64(c.BindHits())
		bindM += float64(c.BindMisses)
	}
	per := func(x float64) float64 { return x / float64(n) }
	rep.set("alloc.scanned", per(scanned), "count", n)
	rep.set("alloc.candidates", per(cands), "count", n)
	rep.set("alloc.yield", ratio(cands, scanned), "ratio", n)
	rep.set("alloc.merge_stalls", per(merge), "count", n)
	rep.set("alloc.producer_busy_share", ratio(prodBusy, prodWall), "ratio", n)
	rep.set("core.commit_stalls", per(stalls), "count", n)
	rep.set("core.queue_high_water", per(hw), "count", n)
	rep.set("core.batches", per(batches), "count", n)
	rep.set("core.bound_publishes", per(publishes), "count", n)
	rep.set("core.worker_busy_share", ratio(busy, workWall), "ratio", n)
	rep.set("core.flatten_hit_rate", ratio(flatH, flatH+flatM), "ratio", n)
	rep.set("core.arch_hit_rate", ratio(archH, archH+archM), "ratio", n)
	rep.set("core.bind_hit_rate", ratio(bindH, bindH+bindM), "ratio", n)
	ops := float64(obs.attempted)
	rep.set("runtime.mallocs_per_op", float64(win.mallocs)/ops, "count", obs.attempted)
	rep.set("runtime.gc_per_op", float64(win.gcs)/ops, "count", obs.attempted)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerTimes are the replay's per-layer self-time metrics, per
// replayed exploration.
var layerTimes = []struct {
	metric string
	kinds  []kind
}{
	{"alloc.produce_ms", []kind{kProduce}},
	{"alloc.supportable_ms", []kind{kSupportable}},
	{"flex.estimate_ms", []kind{kEstimate}},
	{"spec.archview_ms", []kind{kArchView}},
	{"cover.ecs_ms", []kind{kECS}},
	{"hgraph.flatten_ms", []kind{kFlatten}},
	{"bind.find_ms", []kind{kBind}},
	{"flex.activatable_ms", []kind{kActivatable}},
	{"pareto.add_ms", []kind{kCommit}},
	{"core.loop_ms", []kind{kExplore, kCandidate}},
}

// layerGroups fold the span kinds into the stages a workload is chosen
// to stress; seedDetail reports each stage's share of the replayed
// exploration time.
var layerGroups = []struct {
	name  string
	kinds []kind
}{
	{"production", []kind{kProduce}},
	{"estimate", []kind{kSupportable, kEstimate}},
	{"implement", []kind{kArchView, kECS, kFlatten, kBind, kActivatable}},
	{"commit", []kind{kCommit}},
	{"loop", []kind{kExplore, kCandidate}},
	{"checkpoint", []kind{kCapture, kSave}},
}

func sumKinds(self [nKinds]time.Duration, kinds []kind) time.Duration {
	var d time.Duration
	for _, k := range kinds {
		d += self[k]
	}
	return d
}

// seedDetail is one seed's replay summary: stage shares of the replayed
// exploration time and each span kind's self time per operation.
func seedDetail(rec *replayRecord) map[string]any {
	self, count := rec.tr.selfTimes()
	shares := map[string]float64{}
	for _, g := range layerGroups {
		shares[g.name] = ratio(float64(sumKinds(self, g.kinds)), float64(rec.exploreWall))
	}
	perOp := map[string]float64{}
	calls := map[string]int{}
	for k := kind(0); k < nKinds; k++ {
		if count[k] == 0 {
			continue
		}
		ops := rec.ops
		if k >= kJob {
			ops = rec.jobs
		}
		perOp[kindNames[k]] = ms(self[k]) / float64(ops)
		calls[kindNames[k]] = count[k]
	}
	return map[string]any{
		"explorations":   rec.ops,
		"stage_shares":   shares,
		"self_ms_per_op": perOp,
		"spans":          calls,
		"overhead_ratio": ratio(float64(rec.exploreWall), float64(rec.refWall)),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerMetrics derives the replay's per-layer metrics over every
// replayed seed.
func layerMetrics(rep *report, recs []*replayRecord) {
	var self [nKinds]time.Duration
	var all replayRecord
	for _, rec := range recs {
		s, _ := rec.tr.selfTimes()
		for k := range self {
			self[k] += s[k]
		}
		all.ops += rec.ops
		all.exploreWall += rec.exploreWall
		all.refWall += rec.refWall
		all.bindFeasible += rec.bindFeasible
		all.frontSize += rec.frontSize
		all.saves += rec.saves
		all.bytes += rec.bytes
		all.periodicJobs += rec.periodicJobs
		all.jobs += rec.jobs
		all.jobWall += rec.jobWall
		all.directWall += rec.directWall
		all.resultBytes += rec.resultBytes
		all.counts.Estimated += rec.counts.Estimated
		all.counts.Attempted += rec.counts.Attempted
		all.counts.ECSTested += rec.counts.ECSTested
		all.counts.BindingRuns += rec.counts.BindingRuns
		all.counts.BindingNodes += rec.counts.BindingNodes
	}
	n := all.ops
	if n == 0 {
		rep.fail("the replay explored nothing")
		return
	}
	per := func(x float64) float64 { return x / float64(n) }
	for _, lt := range layerTimes {
		rep.set(lt.metric, per(ms(sumKinds(self, lt.kinds))), "ms", n)
	}
	c := all.counts
	rep.set("core.estimated", per(float64(c.Estimated)), "count", n)
	rep.set("core.bound_prune_ratio", 1-ratio(float64(c.Attempted), float64(c.Estimated)), "ratio", n)
	rep.set("cover.ecs_tested", per(float64(c.ECSTested)), "count", n)
	rep.set("bind.runs", per(float64(c.BindingRuns)), "count", n)
	rep.set("bind.nodes", per(float64(c.BindingNodes)), "count", n)
	rep.set("bind.feasible_ratio", ratio(float64(all.bindFeasible), float64(c.BindingRuns)), "ratio", n)
	rep.set("pareto.front_size", per(float64(all.frontSize)), "count", n)
	rep.set("trace.overhead_ratio", ratio(float64(all.exploreWall), float64(all.refWall)), "ratio", n)

	wall := float64(all.exploreWall)
	rep.set("checkpoint.capture_share", ratio(float64(self[kCapture]), wall), "ratio", n)
	rep.set("checkpoint.save_share", ratio(float64(self[kSave]), wall), "ratio", n)
	rep.set("checkpoint.saves_per_job", ratio(float64(all.saves), float64(all.periodicJobs)), "count", all.periodicJobs)
	rep.set("checkpoint.bytes", ratio(float64(all.bytes), float64(all.saves)), "B", all.saves)

	jobWall := float64(all.jobWall)
	rep.set("server.submit_share", ratio(float64(self[kSubmit]), jobWall), "ratio", all.jobs)
	rep.set("server.wait_share", ratio(float64(self[kWait]), jobWall), "ratio", all.jobs)
	rep.set("server.result_share", ratio(float64(self[kResult]), jobWall), "ratio", all.jobs)
	rep.set("server.overhead_share", ratio(float64(all.jobWall-all.directWall), jobWall), "ratio", all.jobs)
	rep.set("server.result_bytes", ratio(float64(all.resultBytes), float64(all.jobs)), "B", all.jobs)
	if all.jobs > 0 {
		rep.detail["server_ms_per_job"] = map[string]float64{
			"job":      ms(all.jobWall) / float64(all.jobs),
			"submit":   ms(self[kSubmit]) / float64(all.jobs),
			"wait":     ms(self[kWait]) / float64(all.jobs),
			"result":   ms(self[kResult]) / float64(all.jobs),
			"direct":   ms(all.directWall) / float64(all.jobs),
			"overhead": ms(all.jobWall-all.directWall) / float64(all.jobs),
		}
	}
	if all.saves > 0 {
		rep.detail["checkpoint_ms_per_save"] = map[string]float64{
			"capture": ms(self[kCapture]) / float64(all.saves),
			"save":    ms(self[kSave]) / float64(all.saves),
		}
	}
}

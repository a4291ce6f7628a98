// Command explore runs flexibility/cost design-space exploration on an
// arbitrary specification graph given as JSON (see internal/spec for
// the format), or on one of the built-in paper models.
//
// Usage:
//
//	explore -spec system.json            # EXPLORE, print the Pareto front
//	explore -model settop -stats         # built-in model with counters
//	explore -spec system.json -algo ea   # evolutionary baseline
//	explore -spec system.json -tsv       # trade-off curve as TSV
//
// Long scans are interruptible and crash-safe: -timeout bounds the wall
// clock, Ctrl-C stops the scan cleanly (both print the best-so-far
// front, which is exactly the Pareto set of the explored cost-ordered
// prefix), and -checkpoint periodically persists an atomic snapshot
// that -resume continues from (see docs/checkpoint-format.md):
//
//	explore -model settop -algo exhaustive -checkpoint ck.json -timeout 500ms
//	explore -model settop -algo exhaustive -checkpoint ck.json -resume
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/hgraph"
	"repro/internal/models"
	"repro/internal/runopts"
	"repro/internal/spec"
)

// cliFlags carries the parsed command line for validation: the shared
// run options plus the flags of explore's own modes.
type cliFlags struct {
	runopts.Options
	algo        string
	model       string
	objectives  string
	upgradeFrom string
	iters       int
	stopAtMax   bool
}

// problems returns every reason the flag combination is rejected; a
// non-empty result exits with status 2 before any exploration starts.
func (f *cliFlags) problems() []string {
	out := f.Problems(nil)
	if f.iters <= 0 {
		out = append(out, "-iters must be > 0")
	}
	if f.Explicit["iters"] && f.algo != "random" {
		out = append(out, "-iters only applies to -algo random")
	}
	if f.Explicit["seed"] && f.algo != "random" && f.algo != "ea" && f.model != "synthetic" {
		out = append(out, "-seed only applies to -algo random, -algo ea, or -model synthetic")
	}
	if f.Explicit["workers"] && f.Workers != 1 && f.algo != "explore" {
		out = append(out, "-workers only applies to -algo explore")
	}
	if f.Checkpoint != "" {
		if f.algo != "explore" && f.algo != "exhaustive" {
			out = append(out, "-checkpoint requires a deterministic cost-ordered scan (-algo explore or exhaustive)")
		}
		if f.objectives != "" || f.upgradeFrom != "" {
			out = append(out, "-checkpoint is not supported with -objectives or -upgrade-from")
		}
	}
	if f.objectives != "" && f.upgradeFrom != "" {
		out = append(out, "-objectives and -upgrade-from are separate modes; pick one")
	}
	if (f.objectives != "" || f.upgradeFrom != "") && (f.algo != "explore" || f.Workers != 1) {
		out = append(out, "-objectives and -upgrade-from run their own sequential cost-ordered scan; -algo and -workers do not apply")
	}
	if f.stopAtMax && f.objectives != "" {
		out = append(out, "-stop-at-max does not apply to -objectives (there is no single flexibility bound)")
	}
	return out
}

func main() {
	os.Exit(run())
}

// run is main minus the exit: returning (instead of os.Exit) lets the
// deferred profiling teardown flush -cpuprofile/-memprofile/-trace on
// every path.
func run() int {
	fl := &cliFlags{}
	fl.Register(flag.CommandLine)
	specPath := flag.String("spec", "", "path to a specification graph JSON file (- for stdin)")
	flag.StringVar(&fl.model, "model", "", "built-in model: settop | decoder | sdr | synthetic")
	flag.StringVar(&fl.algo, "algo", "explore", "explorer: explore | exhaustive | random | ea")
	stats := flag.Bool("stats", false, "print exploration statistics")
	tsv := flag.Bool("tsv", false, "emit the front as TSV instead of a table")
	asJSON := flag.Bool("json", false, "emit the full result (front, behaviours, stats) as JSON")
	flag.IntVar(&fl.iters, "iters", 1000, "iterations for -algo random")
	seed := flag.Int64("seed", 1, "seed for random/ea explorers and synthetic models")
	flag.BoolVar(&fl.stopAtMax, "stop-at-max", false, "terminate when maximum flexibility is implemented")
	flag.StringVar(&fl.objectives, "objectives", "", "comma-separated extra objectives beyond cost+1/flexibility: latency, or any resource attribute (e.g. power)")
	flag.StringVar(&fl.upgradeFrom, "upgrade-from", "", "comma-separated deployed units; explore cost-ordered upgrades (supersets only)")
	flag.Parse()
	fl.Visit(flag.CommandLine)
	if probs := fl.problems(); len(probs) > 0 {
		for _, p := range probs {
			fmt.Fprintln(os.Stderr, "explore:", p)
		}
		return 2
	}

	stopProf, err := fl.StartProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "explore:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "explore:", err)
		}
	}()

	s, err := loadSpec(*specPath, fl.model, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "explore:", err)
		return 1
	}
	if !fl.Preflight("explore", s) {
		return 1
	}
	base, err := upgradeBase(s, fl.upgradeFrom)
	if err != nil {
		fmt.Fprintln(os.Stderr, "explore:", err)
		return 2
	}

	opts := fl.Core()
	opts.StopAtMaxFlex = fl.stopAtMax

	// A SIGINT cancels the scan instead of killing the process: the
	// explorers return their prefix-exact partial front, a final
	// checkpoint is flushed, and the front is printed before exit.
	ctx, cancel := fl.Context()
	defer cancel()

	if fl.objectives != "" {
		runMulti(ctx, s, opts, fl.objectives)
		return 0
	}
	if base != nil {
		r := core.UpgradeContext(ctx, s, base, opts)
		fmt.Printf("upgrades of %v: %d Pareto-optimal extensions\n\n", base, len(r.Front))
		fmt.Print(r.FrontTable(s.Problem.Root.ID))
		return 0
	}

	// The exhaustive overrides must be in opts before the checkpoint
	// wiring so the options digest describes the scan actually run and
	// a snapshot taken under -algo exhaustive resumes consistently.
	if fl.algo == "exhaustive" {
		opts.DisableFlexBound = true
		opts.IncludeUselessComm = true
		opts.StopAtMaxFlex = false
	}

	flush, err := fl.Checkpointing("explore", s, &opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "explore:", err)
		return 1
	}

	var r *core.Result
	switch fl.algo {
	case "explore":
		r = core.ExploreParallelContext(ctx, s, opts, fl.Workers, 0)
	case "exhaustive":
		r = core.ExhaustiveContext(ctx, s, opts)
	case "random":
		r = core.RandomSearchContext(ctx, s, opts, fl.iters, *seed)
	case "ea":
		r = core.EvolutionaryContext(ctx, s, opts, core.EAConfig{Seed: *seed})
	default:
		fmt.Fprintf(os.Stderr, "explore: unknown algorithm %q\n", fl.algo)
		return 2
	}
	flush(r)
	if r.Interrupted {
		fmt.Fprintf(os.Stderr, "explore: interrupted (%s) at candidate %d; the front below is the Pareto set of the explored prefix\n",
			r.Reason, r.Cursor)
		if fl.Checkpoint != "" {
			fmt.Fprintf(os.Stderr, "explore: continue with: explore %s -resume\n",
				strings.Join(resumeArgs(), " "))
		}
	}

	if *asJSON {
		data, err := r.MarshalJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "explore:", err)
			return 1
		}
		fmt.Println(string(data))
		return 0
	}
	if *tsv {
		var pts []dot.TradeoffPoint
		for _, im := range r.Front {
			pts = append(pts, dot.TradeoffPoint{
				Cost: im.Cost, Flexibility: im.Flexibility, Label: im.Allocation.String(),
			})
		}
		fmt.Print(dot.TradeoffTSV(pts))
	} else {
		fmt.Printf("specification %q: %d Pareto-optimal implementations (max flexibility %g)\n\n",
			s.Name, len(r.Front), r.MaxFlexibility)
		fmt.Print(r.FrontTable(s.Problem.Root.ID))
	}
	if *stats {
		st := r.Stats
		fmt.Println()
		fmt.Println(s.Summary())
		fmt.Printf("design space         : %.3g design points\n", st.DesignSpace)
		fmt.Printf("allocation space     : %.3g subsets, %d scanned\n", st.AllocSpace, st.Scanned)
		fmt.Printf("possible allocations : %d\n", st.PossibleAllocations)
		fmt.Printf("implementations      : %d attempted, %d feasible\n", st.Attempted, st.Feasible)
		fmt.Printf("binding solver       : %d runs, %d nodes, %d behaviours tested\n",
			st.BindingRuns, st.BindingNodes, st.ECSTested)
		if c := st.Cache; c != (core.CacheStats{}) {
			fmt.Printf("flatten cache        : problem %d hits / %d misses, arch %d hits / %d misses\n",
				c.FlattenHits, c.FlattenMisses, c.ArchFlattenHits, c.ArchFlattenMisses)
			fmt.Printf("binding memo         : %d reused (%d exact, %d replayed, %d dominated), %d solved, %d supportable-sets reused\n",
				c.BindHits(), c.BindExactHits, c.BindReplayHits, c.BindInfeasibleHits, c.BindMisses, c.SupportableReused)
		}
		if p := st.Pipeline; p.Workers > 0 {
			fmt.Printf("parallel pipeline    : %d workers, queue %d (high water %d), %d commit stalls, %s busy\n",
				p.Workers, p.QueueDepth, p.QueueHighWater, p.CommitStalls,
				time.Duration(p.BusyNanos).Round(time.Millisecond))
			fmt.Printf("range jobs           : %d committed (batch size %d), %d bound publishes\n",
				p.BatchesCommitted, p.BatchSize, p.BoundPublishes)
		}
		if p := st.Pipeline; p.Producers > 0 {
			fmt.Printf("sharded producers    : %d shards, %s busy, %d merge stalls\n",
				p.Producers, time.Duration(p.ProducerBusyNanos).Round(time.Millisecond), p.MergeStalls)
		}
		fmt.Printf("termination          : %s (cursor %d)\n", r.Reason, r.Cursor)
		if len(st.Diags) > 0 {
			fmt.Printf("skipped candidates   : %d (injected faults or recovered panics)\n", len(st.Diags))
		}
	}
	return 0
}

// resumeArgs reconstructs the flags (minus -resume/-timeout) the user
// would pass to continue an interrupted scan.
func resumeArgs() []string {
	var out []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "resume" || f.Name == "timeout" {
			return
		}
		out = append(out, fmt.Sprintf("-%s=%s", f.Name, f.Value))
	})
	return out
}

// upgradeBase parses -upgrade-from into the deployed allocation (nil
// without the flag). Every ID must name an allocatable unit of s.
func upgradeBase(s *spec.Spec, list string) (spec.Allocation, error) {
	if list == "" {
		return nil, nil
	}
	base, units := spec.Allocation{}, alloc.Units(s)
	for _, id := range strings.Split(list, ",") {
		switch id := hgraph.ID(strings.TrimSpace(id)); {
		case id == "":
		case !slices.ContainsFunc(units, func(u alloc.Unit) bool { return u.ID == id }):
			return nil, fmt.Errorf("-upgrade-from: %q is not an allocatable unit of %q", id, s.Name)
		default:
			base[id] = true
		}
	}
	return base, nil
}

func loadSpec(path, model string, seed int64) (*spec.Spec, error) {
	switch {
	case path == "" && model == "":
		return nil, fmt.Errorf("one of -spec or -model is required")
	case path != "" && model != "":
		return nil, fmt.Errorf("-spec and -model are mutually exclusive")
	case path == "-":
		return spec.Read(os.Stdin)
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return spec.Read(f)
	}
	if s, ok := models.ByName(model, seed); ok {
		return s, nil
	}
	return nil, fmt.Errorf("unknown model %q (settop | decoder | sdr | synthetic)", model)
}

// runMulti runs the generalized multi-objective exploration.
func runMulti(ctx context.Context, s *spec.Spec, opts core.Options, names string) {
	objs := []core.Objective{core.CostObjective(), core.InvFlexibilityObjective()}
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		switch n {
		case "":
		case "latency":
			opts.AllBehaviours = true
			objs = append(objs, core.MeanLatencyObjective())
		default:
			objs = append(objs, core.ResourceSumObjective(n))
		}
	}
	r := core.ExploreMultiContext(ctx, s, opts, objs)
	if r.Interrupted {
		fmt.Fprintf(os.Stderr, "explore: interrupted (%s) at candidate %d; partial front follows\n", r.Reason, r.Cursor)
	}
	for _, name := range r.Names {
		fmt.Printf("%-14s ", name)
	}
	fmt.Println("allocation")
	for i, im := range r.Front {
		for _, v := range r.Objectives[i] {
			fmt.Printf("%-14.4g ", v)
		}
		fmt.Println(im.Allocation)
	}
}

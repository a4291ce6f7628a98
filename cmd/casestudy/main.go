// Command casestudy reproduces the paper's Section 5 evaluation on the
// Set-Top box specification: Table 1, the Pareto-optimal set, the
// search-space reduction statistics, and the Fig. 4 trade-off curve.
//
// Usage:
//
//	casestudy                  # run EXPLORE, print the Pareto table + stats
//	casestudy -table1          # print Table 1 (possible mappings)
//	casestudy -tradeoff        # print the Fig. 4 trade-off curve as TSV
//	casestudy -compare         # compare EXPLORE, exhaustive, random, EA
//	casestudy -timing=rta      # ablation: exact response-time analysis
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/activation"
	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/hgraph"
	"repro/internal/listsched"
	"repro/internal/models"
	"repro/internal/runopts"
	"repro/internal/spec"
)

// paperName maps internal unit IDs to the paper's component names.
func paperName(id hgraph.ID) string {
	switch id {
	case "dD3":
		return "D3"
	case "dU2":
		return "U2"
	case "dG1":
		return "G1"
	default:
		return strings.Replace(string(id), "uP", "uP", 1)
	}
}

func allocString(im *core.Implementation) string {
	var parts []string
	for _, id := range im.Allocation.IDs() {
		parts = append(parts, paperName(id))
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

func clusterString(im *core.Implementation) string {
	var parts []string
	for _, c := range im.Clusters {
		cs := string(c)
		// Only the leaf clusters are listed in the paper's table.
		switch cs {
		case "GP", "gG", "gD":
			continue
		}
		parts = append(parts, "y"+strings.TrimPrefix(cs, "g"))
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

// cliFlags carries the parsed command line for validation: the shared
// run options plus casestudy's analysis modes.
type cliFlags struct {
	runopts.Options
	table1   bool
	tradeoff bool
	compare  bool
	verify   bool
	family   bool
}

// modeSelected reports whether a non-default analysis mode is active
// (they all preclude checkpointing and parallel workers).
func (f *cliFlags) modeSelected() bool {
	return f.table1 || f.tradeoff || f.compare || f.verify || f.family
}

// problems returns every reason the flag combination is rejected; a
// non-empty result exits with status 2 before any exploration starts.
func (f *cliFlags) problems() []string {
	out := f.Problems(nil)
	if (f.Checkpoint != "" || f.Resume) && f.modeSelected() {
		out = append(out, "-checkpoint/-resume only apply to the default Pareto run")
	}
	if f.Workers != 1 && f.modeSelected() {
		out = append(out, "-workers only applies to the default Pareto run")
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
	flag.BoolVar(&fl.table1, "table1", false, "print Table 1 (possible mappings and latencies)")
	flag.BoolVar(&fl.tradeoff, "tradeoff", false, "print the Fig. 4 flexibility/cost trade-off as TSV")
	flag.BoolVar(&fl.compare, "compare", false, "compare EXPLORE against exhaustive, random and EA baselines")
	flag.BoolVar(&fl.verify, "verify", false, "re-verify every front implementation end to end (binding rules, schedules, activation rules)")
	flag.BoolVar(&fl.family, "family", false, "product-family analysis of the front (entry costs, commonality, marginal costs)")
	flag.Parse()
	fl.Visit(flag.CommandLine)
	if probs := fl.problems(); len(probs) > 0 {
		for _, p := range probs {
			fmt.Fprintln(os.Stderr, "casestudy:", p)
		}
		return 2
	}
	stopProf, err := fl.StartProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "casestudy:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "casestudy:", err)
		}
	}()

	ctx, cancel := fl.Context()
	defer cancel()

	s := models.SetTopBox()
	if !fl.Preflight("casestudy", s) {
		return 1
	}
	opts := fl.Core()

	switch {
	case fl.table1:
		printTable1()
	case fl.tradeoff:
		r := core.ExploreContext(ctx, s, opts)
		var pts []dot.TradeoffPoint
		for _, im := range r.Front {
			pts = append(pts, dot.TradeoffPoint{
				Cost: im.Cost, Flexibility: im.Flexibility, Label: allocString(im),
			})
		}
		fmt.Print(dot.TradeoffTSV(pts))
	case fl.compare:
		return compareExplorers(ctx, s, opts)
	case fl.verify:
		return verifyFront(ctx, s, opts)
	case fl.family:
		r := core.ExploreContext(ctx, s, opts)
		fmt.Print(core.AnalyzeFamily(s, r.Front))
	default:
		flush, err := fl.Checkpointing("casestudy", s, &opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "casestudy:", err)
			return 1
		}
		r := core.ExploreParallelContext(ctx, s, opts, fl.Workers, 0)
		flush(r)
		if r.Interrupted {
			fmt.Fprintf(os.Stderr, "casestudy: interrupted (%s) at candidate %d; the table below covers the explored prefix\n",
				r.Reason, r.Cursor)
		}
		fmt.Println("Set-Top box case study (Section 5) — Pareto-optimal set:")
		fmt.Println()
		fmt.Printf("%-26s | %-40s | %6s | %2s\n", "Resources", "Clusters", "c", "f")
		fmt.Println(strings.Repeat("-", 84))
		for _, im := range r.Front {
			fmt.Printf("%-26s | %-40s | $%5.0f | %2.0f\n",
				allocString(im), clusterString(im), im.Cost, im.Flexibility)
		}
		fmt.Println()
		st := r.Stats
		fmt.Printf("design space        : 2^25 = %.0f design points\n", st.DesignSpace)
		fmt.Printf("allocation subsets  : 2^14 = %.0f (scanned %d in cost order)\n", st.AllocSpace, st.Scanned)
		fmt.Printf("possible allocations: %d (flexibility estimated for each)\n", st.PossibleAllocations)
		fmt.Printf("implementations     : %d attempted, %d feasible\n", st.Attempted, st.Feasible)
		fmt.Printf("binding solver      : %d runs over %d behaviours (%d search nodes)\n",
			st.BindingRuns, st.ECSTested, st.BindingNodes)
		if c := st.Cache; c != (core.CacheStats{}) {
			fmt.Printf("evaluation caches   : %d bindings reused / %d solved, flatten %d/%d hits (problem/arch)\n",
				c.BindHits(), c.BindMisses, c.FlattenHits, c.ArchFlattenHits)
		}
		if p := st.Pipeline; p.Workers > 0 {
			fmt.Printf("parallel pipeline   : %d workers, queue %d (high water %d), %d commit stalls, %s busy\n",
				p.Workers, p.QueueDepth, p.QueueHighWater, p.CommitStalls,
				time.Duration(p.BusyNanos).Round(time.Millisecond))
			fmt.Printf("range jobs          : %d committed (batch size %d), %d bound publishes\n",
				p.BatchesCommitted, p.BatchSize, p.BoundPublishes)
		}
		if p := st.Pipeline; p.Producers > 0 {
			fmt.Printf("sharded producers   : %d shards, %s busy, %d merge stalls\n",
				p.Producers, time.Duration(p.ProducerBusyNanos).Round(time.Millisecond), p.MergeStalls)
		}
		fmt.Printf("maximum flexibility : %g\n", r.MaxFlexibility)
	}
	return 0
}

func printTable1() {
	resources := []hgraph.ID{"uP1", "uP2", "A1", "A2", "A3", "D3", "U2", "G1"}
	fmt.Printf("%-8s", "Process")
	for _, r := range resources {
		fmt.Printf(" %5s", r)
	}
	fmt.Println()
	fmt.Println(strings.Repeat("-", 8+6*len(resources)))
	for _, row := range models.Table1() {
		fmt.Printf("%-8s", row.Process)
		for _, r := range resources {
			if lat, ok := row.Latencies[r]; ok {
				fmt.Printf(" %5.0f", lat)
			} else {
				fmt.Printf(" %5s", "-")
			}
		}
		fmt.Println()
	}
}

func compareExplorers(ctx context.Context, s *spec.Spec, opts core.Options) int {
	type run struct {
		name string
		res  *core.Result
	}
	runs := []run{
		{"EXPLORE (paper)", core.ExploreContext(ctx, s, opts)},
		{"exhaustive", core.ExhaustiveContext(ctx, s, opts)},
		{"random (1000)", core.RandomSearchContext(ctx, s, opts, 1000, 1)},
		{"evolutionary", core.EvolutionaryContext(ctx, s, opts, core.EAConfig{Seed: 1})},
	}
	fmt.Printf("%-16s | %6s | %9s | %8s | %9s\n", "explorer", "front", "attempted", "bindings", "nodes")
	fmt.Println(strings.Repeat("-", 62))
	for _, r := range runs {
		fmt.Printf("%-16s | %6d | %9d | %8d | %9d\n", r.name, len(r.res.Front),
			r.res.Stats.Attempted, r.res.Stats.BindingRuns, r.res.Stats.BindingNodes)
	}
	return 0
}

// verifyFront re-derives every Pareto implementation and checks each of
// its behaviours with the independent validators: binding feasibility
// rules, a constructed static schedule, and the hierarchical activation
// rules over a round-robin schedule of all behaviours. It also reports
// the latency head-room an optimizing re-binding recovers.
func verifyFront(ctx context.Context, s *spec.Spec, opts core.Options) int {
	opts.AllBehaviours = true
	r := core.ExploreContext(ctx, s, opts)
	failures := 0
	for _, im := range r.Front {
		var phases []activation.Phase
		saved, optimal := 0.0, 0.0
		for i, beh := range im.Behaviours {
			fp, err := s.Problem.Flatten(beh.ECS.Selection)
			if err != nil {
				fmt.Println("FAIL flatten:", err)
				failures++
				continue
			}
			av, err := s.ArchViewFor(im.Allocation, beh.ArchSelection)
			if err != nil {
				fmt.Println("FAIL arch view:", err)
				failures++
				continue
			}
			if err := bind.Check(s, fp, av, beh.Binding, bind.Options{Timing: bind.TimingPaper}); err != nil {
				fmt.Println("FAIL binding rules:", err)
				failures++
			}
			sch, err := listsched.Build(s, fp, beh.Binding)
			if err != nil {
				fmt.Println("FAIL schedule:", err)
				failures++
			} else if err := listsched.Validate(s, fp, beh.Binding, sch); err != nil {
				fmt.Println("FAIL schedule validation:", err)
				failures++
			}
			if best, ok := bind.FindMinLatency(s, fp, av, bind.Options{Timing: bind.TimingPaper}); ok {
				saved += bind.TotalLatency(s, beh.Binding) - bind.TotalLatency(s, best.Binding)
				optimal += bind.TotalLatency(s, best.Binding)
			}
			phases = append(phases, activation.Phase{
				Start:         float64(i) * 10000,
				Selection:     beh.ECS.Selection,
				ArchSelection: beh.ArchSelection,
				Binding:       beh.Binding,
			})
		}
		sched := &activation.Schedule{Phases: phases}
		if err := activation.CheckSchedule(s, im.Allocation, sched, bind.Options{Timing: bind.TimingPaper}); err != nil {
			fmt.Println("FAIL activation rules:", err)
			failures++
		}
		fmt.Printf("$%4.0f f=%-2g: %d behaviours verified; re-binding saves %4.0f ns total latency (optimum %4.0f)\n",
			im.Cost, im.Flexibility, len(im.Behaviours), saved, optimal)
	}
	if failures > 0 {
		fmt.Printf("%d verification failures\n", failures)
		return 1
	}
	fmt.Println("all implementations verified end to end")
	return 0
}

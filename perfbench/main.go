// Command perfbench is the repository's benchmark: it runs one workload
// from a seed, measures it end to end for a fixed time, checks every
// result, and prints the metrics as JSON. With -trace 1 it instead
// measures the layers: a profiled run folds CPU samples by module, and
// a replay walks the workload's specifications through each layer's
// public functions with one span per call.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload family|scaled|service --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Earlier lines record the run's
// context (CPU count, GOMAXPROCS, Go version, seed, sample counts) and,
// for traced runs, the per-seed layer shares. See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string // scratch space for checkpoints, profiles and spans
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: family | scaled | service")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measured wall time of the timed (or profiled) run")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "scratch directory for checkpoints, profiles and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (family | scaled | service)\n", *workload)
		return 2
	case *seconds <= 0:
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-"+*workload+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: dir}

	var rep *report
	if cfg.trace {
		rep, err = traced(w, cfg, *workdir)
	} else {
		rep, err = timed(w, cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.print(stdout, cfg)
	if rep.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed\n", rep.failed, rep.attempted)
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one invocation prints: the result line plus the
// context and detail records that precede it.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	samples           map[string]int // sample count behind each metric
	context           map[string]any // workload-specific context (tail percentile, ...)
	detail            map[string]any // traced runs: per-seed shares, absolute times
	failures          []string       // first few failure descriptions
}

func newReport() *report {
	return &report{
		metrics: map[string]metric{},
		samples: map[string]int{},
		context: map[string]any{},
		detail:  map[string]any{},
	}
}

func (r *report) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// fail records a failed operation with its cause.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) print(out io.Writer, cfg config) {
	ctx := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"samples":    r.samples,
	}
	for k, v := range r.context {
		ctx[k] = v
	}
	if len(r.failures) > 0 {
		ctx["failures"] = r.failures
	}
	writeLine(out, map[string]any{"context": ctx})
	if len(r.detail) > 0 {
		writeLine(out, map[string]any{"detail": r.detail})
	}
	writeLine(out, map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	})
}

func writeLine(out io.Writer, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	fmt.Fprintf(out, "%s\n", data)
}

// median returns the median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

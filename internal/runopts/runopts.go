// Package runopts owns the run options every exploration front end
// shares — the timing test, the weighted metric, the evaluation cache,
// the worker budget, the wall-clock budget, checkpointing, the
// profile outputs and the lint preflight: their flags, one validator
// for their values and combinations, the core.Options they select, and
// the checkpoint and preflight wiring of a run. The commands and the
// job decoder keep only the rules of their own modes.
//
// How candidates are produced (enumerator, producer shards, batch
// size) is not an option here: the engine resolves it from the unit
// and worker counts, and every choice emits the same front.
package runopts

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"time"

	"repro/internal/bind"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/lint"
	"repro/internal/spec"
)

// timings maps every accepted timing-test name to its policy.
var timings = map[string]bind.TimingPolicy{
	"paper":       bind.TimingPaper,
	"rta":         bind.TimingRTA,
	"ll":          bind.TimingLiuLayland,
	"liu-layland": bind.TimingLiuLayland,
	"none":        bind.TimingNone,
}

// Options holds the shared run options; Register sets their defaults.
type Options struct {
	// Timing names the timing test: paper | rta | ll | liu-layland | none.
	Timing   string
	Weighted bool
	// Cache is on or off; off runs the uncached reference evaluator.
	Cache string
	// Workers is the worker budget; 0 lets the front end choose.
	Workers int
	// Timeout bounds the run's wall clock (0 = no limit); MaxTimeout,
	// when positive, caps it.
	Timeout, MaxTimeout time.Duration
	Checkpoint          string
	CheckpointEvery     int
	Resume              bool
	// CPUProfile, MemProfile and Trace are profile output paths.
	CPUProfile, MemProfile, Trace string
	// Lint is on or off: whether Preflight lints the specification.
	Lint string
	// Explicit holds the names of the flags set on the command line,
	// so combination rules do not misfire on defaults.
	Explicit map[string]bool
}

// Register defines the shared flags on fs, bound to o, and sets o to
// their defaults.
func (o *Options) Register(fs *flag.FlagSet) {
	o.Explicit = map[string]bool{}
	fs.StringVar(&o.Timing, "timing", "paper", "timing test: paper | rta | ll (= liu-layland) | none")
	fs.BoolVar(&o.Weighted, "weighted", false, "weighted flexibility metric (footnote 2)")
	fs.StringVar(&o.Cache, "cache", "on", "cross-candidate evaluation caches: on | off (off runs the uncached reference evaluator)")
	fs.IntVar(&o.Workers, "workers", 1, "parallel exploration workers (0 = GOMAXPROCS); the front is identical to sequential")
	fs.DurationVar(&o.Timeout, "timeout", 0, "stop after this duration and print the best-so-far front (0 = no limit)")
	fs.StringVar(&o.Checkpoint, "checkpoint", "", "periodically write an atomic resume snapshot to this file")
	fs.IntVar(&o.CheckpointEvery, "checkpoint-every", 64, "candidates between periodic checkpoints")
	fs.BoolVar(&o.Resume, "resume", false, "continue the scan from the -checkpoint snapshot")
	fs.StringVar(&o.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&o.Trace, "trace", "", "write a runtime execution trace to this file")
	fs.StringVar(&o.Lint, "lint", "on", "preflight static analysis: on | off (see docs/lint-codes.md)")
}

// Visit records in o.Explicit the flags set on fs's command line.
func (o *Options) Visit(fs *flag.FlagSet) {
	fs.Visit(func(f *flag.Flag) { o.Explicit[f.Name] = true })
}

// Problems returns every reason the options are rejected. Each names
// its knob by flag ("-workers"), or by names[flag] where the front end
// spells the knob differently (a JSON field).
func (o *Options) Problems(names map[string]string) []string {
	name := func(knob string) string {
		if n, ok := names[knob]; ok {
			return n
		}
		return "-" + knob
	}
	var out []string
	if _, ok := timings[o.Timing]; !ok {
		out = append(out, fmt.Sprintf("unknown %s %q (paper | rta | ll | liu-layland | none)", name("timing"), o.Timing))
	}
	if o.Cache != "on" && o.Cache != "off" {
		out = append(out, name("cache")+" must be on or off")
	}
	if o.Lint != "on" && o.Lint != "off" {
		out = append(out, name("lint")+" must be on or off")
	}
	if o.Workers < 0 {
		out = append(out, name("workers")+" must be >= 0")
	}
	if o.Timeout < 0 {
		out = append(out, name("timeout")+" must be >= 0")
	}
	if o.MaxTimeout > 0 && o.Timeout > o.MaxTimeout {
		out = append(out, fmt.Sprintf("%s %v exceeds the cap %v", name("timeout"), o.Timeout, o.MaxTimeout))
	}
	if o.CheckpointEvery <= 0 {
		out = append(out, name("checkpoint-every")+" must be > 0")
	}
	if o.Explicit["checkpoint-every"] && o.Checkpoint == "" {
		out = append(out, "-checkpoint-every requires -checkpoint (there is no snapshot file to write)")
	}
	if o.Resume && o.Checkpoint == "" {
		out = append(out, "-resume requires -checkpoint (the snapshot to continue from)")
	}
	// Two profiles writing to one file would silently corrupt each other.
	seen := map[string]string{}
	for _, p := range [][2]string{{"cpuprofile", o.CPUProfile}, {"memprofile", o.MemProfile}, {"trace", o.Trace}} {
		if prev, ok := seen[p[1]]; ok && p[1] != "" {
			out = append(out, fmt.Sprintf("-%s and -%s write to the same file %q", prev, p[0], p[1]))
		}
		seen[p[1]] = p[0]
	}
	return out
}

// Core returns the core.Options the shared knobs select. The timing
// name must have passed Problems.
func (o *Options) Core() core.Options {
	return core.Options{Timing: timings[o.Timing], Weighted: o.Weighted, DisableCache: o.Cache == "off"}
}

// Context returns the run's context: cancelled by SIGINT, so the scan
// stops cleanly with its prefix-exact front, and by Timeout when set.
func (o *Options) Context() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	if o.Timeout <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, o.Timeout)
	return ctx, func() { cancel(); stop() }
}

// Checkpointing wires -checkpoint into *opts for a scan of s: a
// snapshot every CheckpointEvery candidates and, under -resume, the
// state of the saved snapshot. It returns the final flush to call with
// the finished (possibly interrupted) result, so the snapshot covers
// the whole explored prefix. Without -checkpoint both are no-ops.
// Failed saves are reported on stderr under prog and do not stop the
// run. *opts must already hold the scan's semantic options: the
// snapshots digest them.
func (o *Options) Checkpointing(prog string, s *spec.Spec, opts *core.Options) (flush func(*core.Result), err error) {
	if o.Checkpoint == "" {
		return func(*core.Result) {}, nil
	}
	w := &checkpoint.Writer{Path: o.Checkpoint}
	save := func(snap *checkpoint.Snapshot, err error) {
		if err == nil {
			err = w.Save(snap)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
		}
	}
	opts.ProgressEvery = o.CheckpointEvery
	opts.Progress = func(p core.Progress) { save(checkpoint.Capture(s, *opts, p)) }
	if o.Resume {
		snap, err := checkpoint.Load(o.Checkpoint)
		if err != nil {
			return nil, err
		}
		if opts.Resume, err = snap.Resume(s, *opts); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "%s: resuming %q at candidate %d (%d front entries)\n",
			prog, snap.SpecName, snap.Cursor, len(snap.Front))
	}
	return func(r *core.Result) { save(checkpoint.FromResult(s, *opts, r)) }, nil
}

// Preflight lints s unless Lint is off, reporting the findings on
// stderr under prog. It returns false when an error-level finding
// blocks the run.
func (o *Options) Preflight(prog string, s *spec.Spec) bool {
	if o.Lint == "off" {
		return true
	}
	if err := lint.Preflight(s, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, prog+":", err, "(rerun with -lint=off to explore anyway)")
		return false
	}
	return true
}

// StartProfiles begins the requested CPU profile and execution trace.
// The returned stop ends them and writes the heap profile; call it
// exactly once, on every exit path after a successful start.
func (o *Options) StartProfiles() (stop func() error, err error) {
	var stops []func() error
	stop = func() error {
		var errs []error
		for _, f := range stops {
			errs = append(errs, f())
		}
		return errors.Join(errs...)
	}
	start := func(path string, begin func(io.Writer) error, end func()) error {
		f, err := os.Create(path)
		if err == nil {
			if err = begin(f); err != nil {
				f.Close()
			}
		}
		if err != nil {
			stop()
			return err
		}
		stops = append(stops, func() error { end(); return f.Close() })
		return nil
	}
	if o.CPUProfile != "" {
		if err := start(o.CPUProfile, pprof.StartCPUProfile, pprof.StopCPUProfile); err != nil {
			return nil, err
		}
	}
	if o.Trace != "" {
		if err := start(o.Trace, trace.Start, trace.Stop); err != nil {
			return nil, err
		}
	}
	if o.MemProfile != "" {
		stops = append(stops, func() error {
			f, err := os.Create(o.MemProfile)
			if err != nil {
				return err
			}
			runtime.GC() // materialize up-to-date allocation stats
			return errors.Join(pprof.WriteHeapProfile(f), f.Close())
		})
	}
	return stop, nil
}

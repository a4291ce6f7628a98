package runopts

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/models"
)

// defaults returns the options of a command line with no flags set.
func defaults() Options {
	var o Options
	o.Register(flag.NewFlagSet("x", flag.ContinueOnError))
	return o
}

// TestProblems covers each shared rule once: every front end reports
// these through Problems, so the commands and the job decoder test
// only their own mode rules.
func TestProblems(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Options)
		want   string // "" = accepted
	}{
		{"defaults", func(o *Options) {}, ""},
		{"timing paper", func(o *Options) { o.Timing = "paper" }, ""},
		{"timing rta", func(o *Options) { o.Timing = "rta" }, ""},
		{"timing ll", func(o *Options) { o.Timing = "ll" }, ""},
		{"timing liu-layland", func(o *Options) { o.Timing = "liu-layland" }, ""},
		{"timing none", func(o *Options) { o.Timing = "none" }, ""},
		{"timing unknown", func(o *Options) { o.Timing = "rtaa" }, "unknown -timing"},
		{"timing empty", func(o *Options) { o.Timing = "" }, "unknown -timing"},
		{"cache off", func(o *Options) { o.Cache = "off" }, ""},
		{"cache unknown", func(o *Options) { o.Cache = "maybe" }, "-cache must be on or off"},
		{"lint unknown", func(o *Options) { o.Lint = "of" }, "-lint must be on or off"},
		{"workers auto", func(o *Options) { o.Workers = 0 }, ""},
		{"workers negative", func(o *Options) { o.Workers = -1 }, "-workers must be >= 0"},
		{"timeout", func(o *Options) { o.Timeout = time.Second }, ""},
		{"timeout negative", func(o *Options) { o.Timeout = -1 }, "-timeout must be >= 0"},
		{"timeout at cap", func(o *Options) { o.Timeout, o.MaxTimeout = time.Second, time.Second }, ""},
		{"timeout above cap", func(o *Options) { o.Timeout, o.MaxTimeout = 2*time.Second, time.Second }, "exceeds the cap"},
		{"checkpoint-every zero", func(o *Options) { o.CheckpointEvery = 0 }, "-checkpoint-every must be > 0"},
		{"checkpoint-every with checkpoint", func(o *Options) {
			o.Checkpoint, o.CheckpointEvery, o.Explicit["checkpoint-every"] = "ck.json", 4, true
		}, ""},
		{"checkpoint-every alone", func(o *Options) { o.Explicit["checkpoint-every"] = true }, "-checkpoint-every requires -checkpoint"},
		{"resume", func(o *Options) { o.Checkpoint, o.Resume = "ck.json", true }, ""},
		{"resume alone", func(o *Options) { o.Resume = true }, "-resume requires -checkpoint"},
		{"profiles", func(o *Options) { o.CPUProfile, o.MemProfile, o.Trace = "c", "m", "t" }, ""},
		{"profiles collide", func(o *Options) { o.CPUProfile, o.Trace = "p", "p" }, "same file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := defaults()
			tc.mutate(&o)
			probs := o.Problems(nil)
			if tc.want == "" {
				if len(probs) != 0 {
					t.Errorf("rejected: %v", probs)
				}
				return
			}
			if len(probs) != 1 || !strings.Contains(probs[0], tc.want) {
				t.Errorf("problems = %v, want exactly one matching %q", probs, tc.want)
			}
		})
	}
}

// TestProblemsNames: a front end with its own spelling of a knob (the
// job API's JSON fields) sees that spelling in every message, and all
// problems are reported at once.
func TestProblemsNames(t *testing.T) {
	o := defaults()
	o.Workers, o.Timeout = -1, -1
	probs := o.Problems(map[string]string{"workers": `"workers"`, "timeout": `"deadlineMs"`})
	want := []string{`"workers" must be >= 0`, `"deadlineMs" must be >= 0`}
	if !reflect.DeepEqual(probs, want) {
		t.Errorf("problems = %q, want %q", probs, want)
	}
}

// TestRegister: the flags parse into the options, Visit records which
// were set, and Core maps them onto the engine's options.
func TestRegister(t *testing.T) {
	var o Options
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	o.Register(fs)
	if err := fs.Parse([]string{"-timing=liu-layland", "-weighted", "-cache=off", "-workers=0", "-checkpoint-every=8"}); err != nil {
		t.Fatal(err)
	}
	o.Visit(fs)
	if !o.Explicit["checkpoint-every"] || o.Explicit["timeout"] {
		t.Errorf("Explicit = %v", o.Explicit)
	}
	want := core.Options{Timing: bind.TimingLiuLayland, Weighted: true, DisableCache: true}
	if got := o.Core(); !reflect.DeepEqual(got, want) {
		t.Errorf("Core() = %+v, want %+v", got, want)
	}
	if got := defaults(); got.Core().Timing != bind.TimingPaper || got.Core().DisableCache {
		t.Errorf("default Core() = %+v, want the paper's test with caches on", got.Core())
	}
}

// TestCheckpointing: a run wired by Checkpointing writes periodic and
// final snapshots, and a -resume run continues from the final one to
// the same front without re-exploring.
func TestCheckpointing(t *testing.T) {
	s := models.SetTopBox()
	o := defaults()
	o.Checkpoint, o.CheckpointEvery = filepath.Join(t.TempDir(), "ck.json"), 16

	opts := o.Core()
	flush, err := o.Checkpointing("test", s, &opts)
	if err != nil {
		t.Fatal(err)
	}
	if opts.ProgressEvery != 16 || opts.Progress == nil {
		t.Fatalf("progress not wired: every=%d", opts.ProgressEvery)
	}
	full := core.ExploreContext(context.Background(), s, opts)
	flush(full)

	o.Resume = true
	opts = o.Core()
	if _, err := o.Checkpointing("test", s, &opts); err != nil {
		t.Fatal(err)
	}
	if opts.Resume == nil || opts.Resume.Cursor != full.Cursor {
		t.Fatalf("resume state = %+v, want cursor %d", opts.Resume, full.Cursor)
	}
	resumed := core.ExploreContext(context.Background(), s, opts)
	if len(resumed.Front) != len(full.Front) || resumed.Stats.Attempted != full.Stats.Attempted {
		t.Errorf("resumed front %d entries / %d attempted, want %d / %d",
			len(resumed.Front), resumed.Stats.Attempted, len(full.Front), full.Stats.Attempted)
	}

	// Without -checkpoint the wiring is inert.
	plain := defaults()
	opts = plain.Core()
	flush, err = plain.Checkpointing("test", s, &opts)
	if err != nil || opts.Progress != nil {
		t.Fatalf("no-checkpoint wiring touched opts (err %v)", err)
	}
	flush(full)
}

// TestStartProfiles: every requested profile is written by stop, and a
// path that cannot be created fails the start without leaving the CPU
// profile running.
func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	o := defaults()
	o.CPUProfile, o.MemProfile, o.Trace = filepath.Join(dir, "cpu"), filepath.Join(dir, "mem"), filepath.Join(dir, "trace")
	stop, err := o.StartProfiles()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{o.CPUProfile, o.MemProfile, o.Trace} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written (%v)", p, err)
		}
	}

	o.Trace = filepath.Join(dir, "missing", "trace")
	if _, err := o.StartProfiles(); err == nil {
		t.Fatal("unwritable trace path accepted")
	}
	// The failed start stopped the CPU profile, so a new one can begin.
	o.Trace = ""
	stop, err = o.StartProfiles()
	if err != nil {
		t.Fatalf("restart after a failed start: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

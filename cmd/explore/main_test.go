package main

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/core"
)

// baseFlags returns a valid default flag set; tests mutate one aspect
// and assert on problems(). The shared run options are covered by
// internal/runopts; these cases pin explore's own mode rules.
func baseFlags() *cliFlags {
	f := &cliFlags{algo: "explore", iters: 1000}
	f.Register(flag.NewFlagSet("explore", flag.ContinueOnError))
	return f
}

func TestFlagValidationAccepts(t *testing.T) {
	cases := []func(*cliFlags){
		func(f *cliFlags) {},
		func(f *cliFlags) { f.Workers = 0; f.Explicit["workers"] = true },
		func(f *cliFlags) { f.Workers = 8; f.Explicit["workers"] = true },
		func(f *cliFlags) {
			f.algo = "random"
			f.iters = 5
			f.Explicit["iters"] = true
			f.Explicit["seed"] = true
		},
		func(f *cliFlags) { f.algo = "ea"; f.Explicit["seed"] = true },
		func(f *cliFlags) { f.model = "synthetic"; f.Explicit["seed"] = true },
		func(f *cliFlags) { f.algo = "exhaustive"; f.Checkpoint = "ck.json"; f.Resume = true },
		func(f *cliFlags) { f.algo = "ea"; f.Workers = 1; f.Explicit["workers"] = true },
		func(f *cliFlags) { f.objectives = "latency,power" },
		func(f *cliFlags) { f.upgradeFrom = "uP2"; f.stopAtMax = true },
	}
	for i, mutate := range cases {
		f := baseFlags()
		mutate(f)
		if probs := f.problems(); len(probs) != 0 {
			t.Errorf("case %d: valid flags rejected: %v", i, probs)
		}
	}
}

func TestFlagValidationRejects(t *testing.T) {
	cases := []struct {
		mutate func(*cliFlags)
		want   string
	}{
		{func(f *cliFlags) { f.iters = 0 }, "-iters"},
		{func(f *cliFlags) { f.iters = -3 }, "-iters"},
		{func(f *cliFlags) { f.Explicit["iters"] = true }, "-iters only applies"},
		{func(f *cliFlags) { f.Explicit["seed"] = true }, "-seed only applies"},
		{func(f *cliFlags) { f.algo = "ea"; f.Workers = 4; f.Explicit["workers"] = true }, "-workers only applies"},
		{func(f *cliFlags) { f.algo = "random"; f.Checkpoint = "ck.json" }, "cost-ordered"},
		{func(f *cliFlags) { f.algo = "ea"; f.Checkpoint = "ck.json" }, "cost-ordered"},
		{func(f *cliFlags) { f.Checkpoint = "ck.json"; f.objectives = "latency" }, "not supported"},
		{func(f *cliFlags) { f.Checkpoint = "ck.json"; f.upgradeFrom = "CPU1" }, "not supported"},
		{func(f *cliFlags) { f.objectives = "power"; f.upgradeFrom = "uP2" }, "separate modes"},
		{func(f *cliFlags) { f.algo = "ea"; f.objectives = "power" }, "-algo and -workers do not apply"},
		{func(f *cliFlags) { f.algo = "random"; f.upgradeFrom = "x" }, "-algo and -workers do not apply"},
		{func(f *cliFlags) { f.objectives = "power"; f.Workers = 2; f.Explicit["workers"] = true }, "-algo and -workers do not apply"},
		{func(f *cliFlags) { f.objectives = "power"; f.stopAtMax = true }, "-stop-at-max"},
		// A shared rule still reaches explore's report.
		{func(f *cliFlags) { f.Timing = "rtaa" }, "-timing"},
	}
	for i, tc := range cases {
		f := baseFlags()
		tc.mutate(f)
		probs := f.problems()
		found := false
		for _, p := range probs {
			if strings.Contains(p, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("case %d: want a problem matching %q, got %v", i, tc.want, probs)
		}
	}
}

// Every rejection must surface all problems at once — the shared and
// the mode rules together — not just the first.
func TestFlagValidationReportsAll(t *testing.T) {
	f := baseFlags()
	f.Workers = -2
	f.iters = 0
	f.Timeout = -1
	if probs := f.problems(); len(probs) < 3 {
		t.Errorf("want >= 3 problems, got %v", probs)
	}
}

func TestLoadSpecModels(t *testing.T) {
	for _, m := range []string{"settop", "decoder", "synthetic"} {
		s, err := loadSpec("", m, 1)
		if err != nil {
			t.Errorf("loadSpec(%s): %v", m, err)
			continue
		}
		if err := s.Validate(); err != nil {
			t.Errorf("model %s invalid: %v", m, err)
		}
	}
}

func TestLoadSpecErrors(t *testing.T) {
	if _, err := loadSpec("", "", 0); err == nil {
		t.Error("no source should error")
	}
	if _, err := loadSpec("x.json", "settop", 0); err == nil {
		t.Error("both sources should error")
	}
	if _, err := loadSpec("", "nope", 0); err == nil {
		t.Error("unknown model should error")
	}
	if _, err := loadSpec("/nonexistent.json", "", 0); err == nil {
		t.Error("missing file should error")
	}
}

// TestUpgradeBase: -upgrade-from names allocatable units only; an
// unknown ID is rejected by name instead of riding along in every
// upgrade.
func TestUpgradeBase(t *testing.T) {
	s, err := loadSpec("", "settop", 0)
	if err != nil {
		t.Fatal(err)
	}
	if base, err := upgradeBase(s, ""); base != nil || err != nil {
		t.Errorf("no flag: base %v, err %v", base, err)
	}
	base, err := upgradeBase(s, "uP2, C1")
	if err != nil || base.String() != "{C1 uP2}" {
		t.Errorf("uP2,C1: base %v, err %v", base, err)
	}
	if _, err := upgradeBase(s, "uP2,nosuchunit"); err == nil || !strings.Contains(err.Error(), "nosuchunit") {
		t.Errorf("unknown unit: err %v, want one naming nosuchunit", err)
	}
}

// TestLoadSpecFromJSONFile loads the shipped case-study model from disk
// and checks that exploring it reproduces the published front.
func TestLoadSpecFromJSONFile(t *testing.T) {
	s, err := loadSpec("../../testdata/settop.json", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	r := core.Explore(s, core.Options{})
	want := [][2]float64{{100, 2}, {120, 3}, {230, 4}, {290, 5}, {360, 7}, {430, 8}}
	if len(r.Front) != len(want) {
		t.Fatalf("front size = %d, want %d", len(r.Front), len(want))
	}
	for i, w := range want {
		if r.Front[i].Cost != w[0] || r.Front[i].Flexibility != w[1] {
			t.Errorf("row %d = (%v,%v), want (%v,%v)",
				i, r.Front[i].Cost, r.Front[i].Flexibility, w[0], w[1])
		}
	}
}

package main

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/hgraph"
	"repro/internal/models"
	"repro/internal/spec"
)

func TestPaperName(t *testing.T) {
	cases := map[string]string{
		"dD3": "D3", "dU2": "U2", "dG1": "G1", "uP2": "uP2", "A1": "A1", "C1": "C1",
	}
	for in, want := range cases {
		if got := paperName(hgraph.ID(in)); got != want {
			t.Errorf("paperName(%s) = %s, want %s", in, got, want)
		}
	}
}

func TestAllocAndClusterStrings(t *testing.T) {
	s := models.SetTopBox()
	im := core.Implement(s, spec.NewAllocation("uP2", "dG1", "dU2", "C1"), core.Options{}, nil)
	if im == nil {
		t.Fatal("implement failed")
	}
	as := allocString(im)
	if as != "C1, G1, U2, uP2" {
		t.Errorf("allocString = %q", as)
	}
	cs := clusterString(im)
	if cs != "yD1, yG1, yI, yU1, yU2" {
		t.Errorf("clusterString = %q", cs)
	}
	if strings.Contains(cs, "yD,") || strings.Contains(cs, "yG,") {
		t.Error("parent clusters must be omitted")
	}
}

// TestTimingPolicyFlag: every timing-test name selects its policy, and
// an unknown name is rejected before any work instead of silently
// running the paper's test.
func TestTimingPolicyFlag(t *testing.T) {
	cases := map[string]bind.TimingPolicy{
		"paper": bind.TimingPaper, "none": bind.TimingNone,
		"ll": bind.TimingLiuLayland, "liu-layland": bind.TimingLiuLayland,
		"rta": bind.TimingRTA,
	}
	for in, want := range cases {
		f := baseFlags()
		f.Timing = in
		if probs := f.problems(); len(probs) != 0 {
			t.Errorf("-timing=%s rejected: %v", in, probs)
		} else if got := f.Core().Timing; got != want {
			t.Errorf("-timing=%s selects %v, want %v", in, got, want)
		}
	}
	for _, in := range []string{"anything-else", "rtaa", ""} {
		f := baseFlags()
		f.Timing = in
		if probs := f.problems(); len(probs) == 0 {
			t.Errorf("-timing=%q accepted", in)
		}
	}
}

// baseFlags returns a valid default flag set; tests mutate one aspect
// and assert on problems(). The shared run options are covered by
// internal/runopts; these cases pin casestudy's own mode rules.
func baseFlags() *cliFlags {
	f := &cliFlags{}
	f.Register(flag.NewFlagSet("casestudy", flag.ContinueOnError))
	return f
}

func TestFlagValidationAccepts(t *testing.T) {
	cases := []func(*cliFlags){
		func(f *cliFlags) {},
		func(f *cliFlags) { f.table1 = true },
		func(f *cliFlags) { f.compare = true },
		func(f *cliFlags) { f.Checkpoint = "ck.json"; f.Resume = true },
		func(f *cliFlags) { f.Workers = 0 },
		func(f *cliFlags) { f.Workers = 4; f.Checkpoint = "ck.json" },
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
		{func(f *cliFlags) { f.Checkpoint = "ck.json"; f.table1 = true }, "only apply to the default"},
		{func(f *cliFlags) { f.Checkpoint = "ck.json"; f.Resume = true; f.verify = true }, "only apply to the default"},
		{func(f *cliFlags) { f.Workers = 4; f.family = true }, "-workers only applies"},
		{func(f *cliFlags) { f.Workers = 0; f.tradeoff = true }, "-workers only applies"},
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
	f.Resume = true
	f.compare = true
	f.Timeout = -1
	f.Workers = -2
	if probs := f.problems(); len(probs) < 4 {
		t.Errorf("want >= 4 problems, got %v", probs)
	}
}

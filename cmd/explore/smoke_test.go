package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestWorkersSmoke builds the CLI and runs the same exploration
// sequentially and with a worker pool, asserting the advertised
// contract of -workers: the front is byte-identical to the sequential
// scan.
func TestWorkersSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the explore binary")
	}
	bin := filepath.Join(t.TempDir(), "explore")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(bin, args...)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s %s: %v", bin, strings.Join(args, " "), err)
		}
		return string(out)
	}
	// The engine shards candidate production across min(workers, 4)
	// producers and sizes range jobs adaptively; neither may move a
	// byte of the front.
	for _, model := range [][]string{{"-model", "settop"}, {"-model", "synthetic", "-seed", "3"}} {
		seq := run(append(model, "-tsv")...)
		if !strings.Contains(seq, "\t") {
			t.Fatalf("%v: sequential run produced no TSV front:\n%s", model, seq)
		}
		for _, workers := range []string{"0", "2", "4"} {
			par := run(append(model, "-tsv", "-workers", workers)...)
			if par != seq {
				t.Errorf("%v -workers %s front differs from sequential:\nsequential:\n%s\nparallel:\n%s", model, workers, seq, par)
			}
		}
	}
}

package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden")

// TestAllExperimentsRun runs every experiment of the table and compares
// the complete output with testdata/experiments.golden. The output is
// deterministic, so the golden file pins every reported number — the
// Upgrade (E13, E17) and multi-objective (E16) results included —
// across refactorings of the engines behind them. Regenerate it with
// go test ./cmd/experiments -update.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment regeneration skipped in -short mode")
	}
	var all bytes.Buffer
	ran := 0
	for _, e := range exps {
		t.Run(e.id, func(t *testing.T) {
			ran++
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("experiment %s panicked: %v", e.id, r)
				}
			}()
			all.Write(captureStdout(t, e.print))
		})
	}
	if ran < len(exps) {
		return // a -run filter selected a subset; there is no whole output to compare
	}
	golden := filepath.Join("testdata", "experiments.golden")
	if *update {
		if err := os.WriteFile(golden, all.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(all.Bytes(), want) {
		t.Errorf("experiments output differs from %s (rerun with -update after an intended change):\n%s",
			golden, firstDiff(all.Bytes(), want))
	}
}

// captureStdout returns what fn prints on stdout.
func captureStdout(t *testing.T, fn func()) []byte {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = saved }()
	fn()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// firstDiff renders the first differing line of got and want.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, gl, wl)
		}
	}
	return ""
}

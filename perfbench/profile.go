package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// profiledWindow is runWindow under a CPU profile written to path.
func profiledWindow(r runner, seconds float64, path string) (*observer, window, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, window{}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, window{}, err
	}
	obs, win := runWindow(r, seconds, true)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, window{}, err
	}
	return obs, win, nil
}

// profiledModules are the modules whose CPU shares are reported: the
// repository's packages under internal/ that a workload runs.
var profiledModules = []string{
	"alloc", "bitset", "boolfunc", "flex", "spec", "hgraph", "cover", "bind",
	"sched", "pareto", "core", "server", "checkpoint", "lint", "models",
}

// gcFrames mark a sample as garbage-collector work wherever they occur
// in its stack.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// cpuShares folds a CPU profile's samples by module with the offline
// `go tool pprof -traces`: a sample counts toward the module of the
// innermost repro/internal frame of its stack (so runtime and standard
// library helpers count toward the module that called them), toward
// "runtime.gc" when the garbage collector was running, and toward
// "other" otherwise (HTTP plumbing, the benchmark's own code).
func cpuShares(path string) (map[string]float64, time.Duration, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	by := map[string]time.Duration{}
	var total time.Duration
	var value time.Duration
	var stack []string
	flush := func() {
		if value > 0 {
			by[moduleOf(stack)] += value
			total += value
		}
		value, stack = 0, stack[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || !strings.HasPrefix(line, " ") {
			continue // header lines
		}
		if d, err := time.ParseDuration(fields[0]); err == nil && len(fields) >= 2 {
			flush()
			value = d
			stack = append(stack, fields[1])
			continue
		}
		if value > 0 {
			stack = append(stack, fields[0])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("go tool pprof: the profile holds no samples")
	}
	shares := map[string]float64{}
	for m, d := range by {
		shares[m] = float64(d) / float64(total)
	}
	return shares, total, nil
}

// moduleOf attributes one sample's stack, leaf first.
func moduleOf(stack []string) string {
	for _, fn := range stack {
		if gcFrames[fn] {
			return "runtime.gc"
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	return "other"
}

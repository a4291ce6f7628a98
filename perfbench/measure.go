package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
)

// A run sets its workload up at least minSetups times and until the
// set-ups have taken setupBudget, at most maxSetups times; setup_s is
// the median. Set-ups take from one to a few hundred milliseconds, so
// one alone is too noisy to gate on.
const (
	minSetups   = 5
	maxSetups   = 50
	setupBudget = 500 * time.Millisecond
)

// observer collects the operations of a timed window; clients of the
// service workload record into it concurrently.
type observer struct {
	mu        sync.Mutex
	lat       []float64 // milliseconds
	attempted int
	failed    int
	failures  []string
	stats     []core.Stats // the runs' returned Stats (traced runs only)
	keepStats bool
}

func (o *observer) record(lat time.Duration, err error, st *core.Stats) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	o.lat = append(o.lat, float64(lat)/float64(time.Millisecond))
	if err != nil {
		o.failed++
		if len(o.failures) < 10 {
			o.failures = append(o.failures, err.Error())
		}
	}
	if o.keepStats && st != nil {
		o.stats = append(o.stats, *st)
	}
}

// window is the process-level cost of a timed window.
type window struct {
	wall       time.Duration
	cpu        time.Duration // user + system, getrusage(RUSAGE_SELF)
	allocBytes uint64        // runtime.MemStats.TotalAlloc delta
	mallocs    uint64
	gcs        uint32
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setUp sets the workload up repeatedly, keeping the last instance,
// and returns it with the median set-up time in seconds and the number
// of set-ups.
func setUp(w workload, cfg config) (runner, float64, int, error) {
	var times []float64
	var total time.Duration
	var r runner
	for len(times) < minSetups || (total < setupBudget && len(times) < maxSetups) {
		if r != nil {
			r.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		r, err = w.setup(cfg.seed, cfg.workdir)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
	}
	return r, median(times), len(times), nil
}

// warmup is the untimed lead-in before a window: it lets the heap and
// connection pools reach their steady size.
func warmup(seconds float64) time.Duration {
	d := time.Duration(seconds * float64(time.Second) / 10)
	if d > time.Second {
		d = time.Second
	}
	return d
}

// runWindow warms the runner up, then measures it for the given time.
func runWindow(r runner, seconds float64, keepStats bool) (*observer, window) {
	r.measure(time.Now().Add(warmup(seconds)), &observer{})
	runtime.GC()
	obs := &observer{keepStats: keepStats}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	r.measure(t0.Add(time.Duration(seconds*float64(time.Second))), obs)
	wall := time.Since(t0)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&ms1)
	return obs, window{
		wall:       wall,
		cpu:        cpu1 - cpu0,
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		mallocs:    ms1.Mallocs - ms0.Mallocs,
		gcs:        ms1.NumGC - ms0.NumGC,
	}
}

// timed is the end-to-end run: set up, compute the reference fronts,
// then measure with tracing off.
func timed(w workload, cfg config) (*report, error) {
	r, setup, setups, err := setUp(w, cfg)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := r.references(false); err != nil {
		return nil, err
	}
	obs, win := runWindow(r, cfg.seconds, false)
	rep := newReport()
	rep.context["inputs"] = r.describe()
	rep.set("setup_s", setup, "s", setups)
	endToEnd(rep, obs, win)
	return rep, nil
}

// endToEnd derives the end-to-end metrics of a window.
func endToEnd(rep *report, obs *observer, win window) {
	rep.attempted += obs.attempted
	rep.failed += obs.failed
	rep.failures = append(rep.failures, obs.failures...)
	n := obs.attempted
	if n == 0 {
		rep.fail("no operation completed in the window")
		return
	}
	lat := append([]float64(nil), obs.lat...)
	sort.Float64s(lat)
	tail, pct := tailOf(lat)
	ok := n - obs.failed
	rep.set("p50_ms", median(lat), "ms", n)
	rep.set("tail_ms", tail, "ms", n)
	rep.set("ops_per_s", float64(ok)/win.wall.Seconds(), "1/s", ok)
	rep.set("cpu_ms_per_op", float64(win.cpu)/float64(time.Millisecond)/float64(n), "ms", n)
	rep.set("alloc_mb_per_op", float64(win.allocBytes)/1e6/float64(n), "MB", n)
	rep.set("ok_ratio", float64(ok)/float64(n), "ratio", n)
	rep.context["tail_percentile"] = pct
	rep.context["window_s"] = win.wall.Seconds()
}

// tailOf returns the highest percentile of the sorted latencies that
// has at least ten samples beyond it — the 11th largest — and that
// percentile. With ten samples or fewer it returns the maximum.
func tailOf(sorted []float64) (float64, float64) {
	n := len(sorted)
	if n <= 10 {
		return sorted[n-1], 100
	}
	return sorted[n-11], 100 * float64(n-10) / float64(n)
}

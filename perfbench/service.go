package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/server"
	"repro/internal/spec"
)

// serviceClients is the closed loop's client count: each client stands
// for a designer who waits for their front before submitting the next
// job. serviceRunning is the server's run-slot count.
const (
	serviceClients = 2
	serviceRunning = 2
)

// serviceJob is one entry of the job deck.
type serviceJob struct {
	body     []byte
	periodic bool
	input    int // index into serviceRunner.specs and .refs
}

// serviceRunner drives internal/server in-process behind a loopback
// listener.
type serviceRunner struct {
	srv     *server.Server
	ts      *httptest.Server
	ckDir   string
	clients []*http.Client
	jobs    []serviceJob
	seeds   []int64      // synthetic model seeds; input 0 is the Set-Top box
	specs   []*spec.Spec // per input, built by references
	refs    []reference
	next    atomic.Int64
}

// setupService builds the job deck — half Set-Top box jobs, half
// 14-unit synthetic jobs, half of each with periodic checkpoints — and
// starts the server with a fresh checkpoint directory.
func setupService(seed int64, dir string) (runner, error) {
	r := &serviceRunner{seeds: generatorSeeds(seed, servicePool)}
	type req struct {
		Model              string `json:"model"`
		Seed               int64  `json:"seed,omitempty"`
		Workers            int    `json:"workers"`
		PeriodicCheckpoint bool   `json:"periodicCheckpoint,omitempty"`
	}
	add := func(rq req, input int) error {
		body, err := json.Marshal(rq)
		if err != nil {
			return err
		}
		r.jobs = append(r.jobs, serviceJob{body: body, periodic: rq.PeriodicCheckpoint, input: input})
		return nil
	}
	for i, g := range r.seeds {
		for _, periodic := range []bool{false, true} {
			if err := add(req{Model: "settop", Workers: 1, PeriodicCheckpoint: periodic}, 0); err != nil {
				return nil, err
			}
			if err := add(req{Model: "synthetic", Seed: g, Workers: 1, PeriodicCheckpoint: periodic}, i+1); err != nil {
				return nil, err
			}
		}
	}
	shuffled := make([]serviceJob, len(r.jobs))
	for i, k := range deck(seed, len(r.jobs)) {
		shuffled[i] = r.jobs[k]
	}
	r.jobs = shuffled

	ckDir, err := os.MkdirTemp(dir, "ck-")
	if err != nil {
		return nil, err
	}
	r.ckDir = ckDir
	r.srv, err = server.New(server.Config{CheckpointDir: ckDir, MaxRunning: serviceRunning, Lint: true})
	if err != nil {
		os.RemoveAll(ckDir)
		return nil, err
	}
	r.ts = httptest.NewServer(r.srv.Handler())
	for i := 0; i < serviceClients; i++ {
		// One keep-alive connection per client: submit, events and
		// result go over it in turn.
		r.clients = append(r.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
		}})
	}
	resp, err := r.clients[0].Get(r.ts.URL + "/readyz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *serviceRunner) references(sequential bool) error {
	r.specs = []*spec.Spec{models.SetTopBox()}
	for _, g := range r.seeds {
		r.specs = append(r.specs, models.Synthetic(models.DefaultSynthetic(g)))
	}
	r.refs = make([]reference, len(r.specs))
	forEach(len(r.specs), sequential, func(i int) {
		r.refs[i] = referenceOf(r.specs[i])
	})
	return checkPaper(r.refs[0].front)
}

func (r *serviceRunner) measure(deadline time.Time, obs *observer) {
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				j := r.jobs[int(r.next.Add(1)-1)%len(r.jobs)]
				t0 := time.Now()
				out, err := r.job(c, j, nil)
				obs.record(time.Since(t0), err, &out.stats)
			}
		}(c)
	}
	wg.Wait()
}

// jobOutput is one job's result as the client saw it.
type jobOutput struct {
	stats       core.Stats
	resultBytes int
}

// job runs one job's lifecycle over HTTP — submit, wait on the SSE
// stream for the terminal event, fetch the result — and checks the
// front. Under a non-nil tracer each HTTP call gets a span.
func (r *serviceRunner) job(c *http.Client, j serviceJob, tr *tracer) (jobOutput, error) {
	var out jobOutput
	sp := tr.begin(kSubmit)
	var view struct {
		ID string `json:"id"`
	}
	status, body, err := do(c, http.MethodPost, r.ts.URL+"/jobs", j.body)
	tr.end(sp)
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("submit: status %d: %s", status, strings.TrimSpace(string(body)))
	}
	if err == nil {
		err = json.Unmarshal(body, &view)
	}
	if err != nil {
		return out, err
	}

	sp = tr.begin(kWait)
	state, err := waitTerminal(c, r.ts.URL+"/jobs/"+view.ID+"/events")
	tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("%s: %w", view.ID, err)
	}
	if state != server.StateCompleted {
		return out, fmt.Errorf("%s: ended %s", view.ID, state)
	}

	sp = tr.begin(kResult)
	status, body, err = do(c, http.MethodGet, r.ts.URL+"/jobs/"+view.ID+"/result", nil)
	tr.end(sp)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("result: status %d", status)
	}
	if err != nil {
		return out, fmt.Errorf("%s: %w", view.ID, err)
	}
	out.resultBytes = len(body)
	got, stats, interrupted, err := decodeResult(body)
	out.stats = stats
	switch {
	case err != nil:
		return out, fmt.Errorf("%s: %w", view.ID, err)
	case interrupted:
		return out, fmt.Errorf("%s: interrupted", view.ID)
	}
	return out, r.refs[j.input].front.check(r.specs[j.input].Name+" via "+view.ID, got)
}

// do sends one request and reads the whole response body.
func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// waitTerminal reads the job's SSE stream until the terminal event and
// returns that event's state. The stream is read to its end so the
// connection goes back to the client's pool.
func waitTerminal(c *http.Client, url string) (server.State, error) {
	resp, err := c.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return "", fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev server.ProgressEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", fmt.Errorf("events: %w", err)
		}
		if ev.State.Terminal() {
			_, _ = io.Copy(io.Discard, resp.Body)
			return ev.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("events: %w", err)
	}
	return "", fmt.Errorf("events: stream ended before the terminal event")
}

// counters reads the server's /stats counters.
func (r *serviceRunner) counters() (server.Counters, error) {
	var st server.Stats
	status, body, err := do(r.clients[0], http.MethodGet, r.ts.URL+"/stats", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("stats: status %d", status)
	}
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	return st.Counters, err
}

// replay runs every deck job once more, one at a time: over HTTP with a
// span per call, in-process for the overhead comparison, and through
// the layer replay — with the periodic jobs' checkpoints captured and
// saved the way the server's run segments do.
func (r *serviceRunner) replay(tr *tracer, rec *replayRecord) {
	w := &checkpoint.Writer{Path: filepath.Join(r.ckDir, "replay.ck.json")}
	for _, j := range r.jobs {
		rec.attempted++
		root := tr.root(kJob)
		out, err := r.job(r.clients[0], j, tr)
		tr.end(root)
		if err != nil {
			rec.mismatches = append(rec.mismatches, err.Error())
			continue
		}
		rec.jobs++
		rec.jobWall += tr.dur(root)
		rec.resultBytes += out.resultBytes

		s := r.specs[j.input]
		rec.attempted++
		root = tr.root(kDirect)
		res := core.ExploreContext(context.Background(), s, core.Options{})
		tr.end(root)
		rec.directWall += tr.dur(root)
		if err := r.refs[j.input].front.check(s.Name+" direct", frontOf(res)); err != nil {
			rec.mismatches = append(rec.mismatches, err.Error())
		}

		ro := replayOptions{}
		if j.periodic {
			ro.writer = w
			rec.periodicJobs++
		}
		rec.add(s.Name, replayExplore(tr, s, ro), r.refs[j.input])
	}
}

func (r *serviceRunner) size() int { return len(r.jobs) }

func (r *serviceRunner) limit(n int) { r.jobs = r.jobs[:n] }

func (r *serviceRunner) describe() map[string]any {
	return map[string]any{"specs": len(r.seeds) + 1, "jobs": len(r.jobs)}
}

func (r *serviceRunner) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: server shutdown:", err)
	}
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
	r.ts.Close()
	os.RemoveAll(r.ckDir)
}

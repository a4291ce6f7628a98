package server

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/lint"
	"repro/internal/models"
	"repro/internal/runopts"
	"repro/internal/spec"
)

// Request is the body of POST /jobs: the specification to explore
// (inline JSON or a built-in model) plus the job's budgets and runtime
// knobs. Unknown fields are rejected — a typo in a budget field must
// not silently become an unbounded job.
type Request struct {
	// Spec is an inline specification graph (internal/spec JSON
	// format). Exactly one of Spec and Model is required.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Model selects a built-in model: settop | decoder | sdr |
	// synthetic.
	Model string `json:"model,omitempty"`
	// Seed parameterizes the synthetic model.
	Seed int64 `json:"seed,omitempty"`

	// Timing is the timing test: paper (default) | rta | ll |
	// liu-layland | none.
	Timing string `json:"timing,omitempty"`
	// Weighted selects the weighted flexibility metric.
	Weighted bool `json:"weighted,omitempty"`
	// Exhaustive disables the flexibility bound and the useless-bus
	// pruning (the exhaustive baseline scan).
	Exhaustive bool `json:"exhaustive,omitempty"`
	// StopAtMaxFlex terminates the scan once maximum flexibility is
	// implemented.
	StopAtMaxFlex bool `json:"stopAtMaxFlex,omitempty"`

	// MaxScan bounds the enumeration effort (0 = unbounded) — the
	// per-job candidate-scan budget, counted in the unit of the
	// enumerator the engine picks: subsets scanned (bitset, up to 20
	// allocatable units) or BDD search nodes visited (symbolic, above).
	MaxScan int `json:"maxScan,omitempty"`
	// MaxECS bounds the behaviours tested per candidate.
	MaxECS int `json:"maxEcs,omitempty"`
	// MaxBindNodes bounds each binding search.
	MaxBindNodes int `json:"maxBindNodes,omitempty"`

	// Workers is the job's worker budget (0 = server default, 1 =
	// sequential, N = parallel pipeline with min(N, 4) sharded
	// candidate producers).
	Workers int `json:"workers,omitempty"`
	// DeadlineMs is the job's wall-clock budget in milliseconds,
	// counted from admission and spanning suspensions; on expiry the
	// job completes with its prefix-exact partial front. 0 selects the
	// server default; the server's MaxDeadline caps it.
	DeadlineMs int64 `json:"deadlineMs,omitempty"`
	// CheckpointEvery is the progress (and periodic-checkpoint) cadence
	// in candidates (0 = 64).
	CheckpointEvery int `json:"checkpointEvery,omitempty"`
	// PeriodicCheckpoint persists a crash snapshot at every progress
	// interval, not only on suspension.
	PeriodicCheckpoint bool `json:"periodicCheckpoint,omitempty"`
}

// apiError is a structured admission or lookup failure, rendered as
// {"error": {...}} with the HTTP status.
type apiError struct {
	Status      int               `json:"-"`
	RetryAfter  int               `json:"-"` // seconds, sets Retry-After when > 0
	Code        string            `json:"code"`
	Message     string            `json:"message"`
	Diagnostics []lint.Diagnostic `json:"diagnostics,omitempty"`
}

// Error codes returned by the API.
const (
	CodeMalformed  = "malformed-request"
	CodeBadSpec    = "bad-spec"
	CodeLint       = "lint-rejected"
	CodeBadBudget  = "bad-budget"
	CodeQueueFull  = "queue-full"
	CodeDraining   = "draining"
	CodeNotFound   = "not-found"
	CodeWrongState = "wrong-state"
	CodeAdmission  = "admission-fault"
)

func errMalformed(msg string) *apiError {
	return &apiError{Status: http.StatusBadRequest, Code: CodeMalformed, Message: msg}
}

func errBudget(msg string) *apiError {
	return &apiError{Status: http.StatusBadRequest, Code: CodeBadBudget, Message: msg}
}

// writeTo renders the error.
func (e *apiError) writeTo(w http.ResponseWriter) {
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", e.RetryAfter))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.Status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]*apiError{"error": e})
}

// parseRequest decodes and validates a job submission: the request
// shape, the specification itself (structural validation), the lint
// preflight (admission control — defective specs are rejected at the
// door with the full diagnostic report), and the budgets against the
// server's caps. It returns the admitted job template or the
// structured 4xx to send.
func (s *Server) parseRequest(body io.Reader) (*Request, *job, *apiError) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, nil, errMalformed(fmt.Sprintf("decoding request: %v", err))
	}
	if dec.More() {
		return nil, nil, errMalformed("trailing data after the request object")
	}

	sp, aerr := s.loadSpec(&req)
	if aerr != nil {
		return nil, nil, aerr
	}
	if s.cfg.Lint {
		rep := lint.NewEngine().Run(sp)
		if rep.HasErrors() {
			errs, _, _ := rep.Counts()
			return nil, nil, &apiError{
				Status:      http.StatusUnprocessableEntity,
				Code:        CodeLint,
				Message:     fmt.Sprintf("lint preflight rejected specification %q: %d error(s)", sp.Name, errs),
				Diagnostics: rep.Diagnostics,
			}
		}
	}

	j, aerr := s.jobFromRequest(&req, sp)
	if aerr != nil {
		return nil, nil, aerr
	}
	return &req, j, nil
}

// loadSpec materializes the requested specification.
func (s *Server) loadSpec(req *Request) (*spec.Spec, *apiError) {
	switch {
	case len(req.Spec) > 0 && req.Model != "":
		return nil, errMalformed(`"spec" and "model" are mutually exclusive`)
	case len(req.Spec) == 0 && req.Model == "":
		return nil, errMalformed(`one of "spec" or "model" is required`)
	case len(req.Spec) > 0:
		sp, err := spec.Read(bytes.NewReader(req.Spec))
		if err != nil {
			return nil, &apiError{Status: http.StatusBadRequest, Code: CodeBadSpec,
				Message: fmt.Sprintf("invalid specification: %v", err)}
		}
		return sp, nil
	}
	if sp, ok := models.ByName(req.Model, req.Seed); ok {
		return sp, nil
	}
	return nil, errMalformed(fmt.Sprintf("unknown model %q (settop | decoder | sdr | synthetic)", req.Model))
}

// jobFromRequest validates the budgets and builds the job template
// (unadmitted: no id, no state).
func (s *Server) jobFromRequest(req *Request, sp *spec.Spec) (*job, *apiError) {
	if req.MaxScan < 0 || req.MaxECS < 0 || req.MaxBindNodes < 0 {
		return nil, errBudget(`"maxScan", "maxEcs" and "maxBindNodes" must be >= 0`)
	}
	ro := runopts.Options{
		Timing:          cmp.Or(req.Timing, "paper"),
		Weighted:        req.Weighted,
		Cache:           "on",
		Lint:            "off", // jobs are linted at admission (Config.Lint)
		Workers:         req.Workers,
		Timeout:         cmp.Or(time.Duration(req.DeadlineMs)*time.Millisecond, s.cfg.MaxDeadline),
		MaxTimeout:      s.cfg.MaxDeadline,
		CheckpointEvery: cmp.Or(req.CheckpointEvery, 64),
	}
	if probs := ro.Problems(jsonNames); len(probs) > 0 {
		return nil, errBudget(strings.Join(probs, "; "))
	}

	opts := ro.Core()
	opts.StopAtMaxFlex = req.StopAtMaxFlex
	opts.DisableFlexBound = req.Exhaustive
	opts.IncludeUselessComm = req.Exhaustive
	opts.MaxScan = req.MaxScan
	opts.MaxECS = req.MaxECS
	opts.MaxBindNodes = req.MaxBindNodes
	j := &job{
		spec:     sp,
		workers:  cmp.Or(ro.Workers, max(s.cfg.DefaultWorkers, 1)),
		ckEvery:  ro.CheckpointEvery,
		periodic: req.PeriodicCheckpoint,
		opts:     opts,
	}
	if ro.Timeout > 0 {
		j.deadline = time.Now().Add(ro.Timeout)
	}
	return j, nil
}

// jsonNames spells the shared run options the way Request names them.
var jsonNames = map[string]string{
	"timing":           `"timing"`,
	"workers":          `"workers"`,
	"timeout":          `"deadlineMs"`,
	"checkpoint-every": `"checkpointEvery"`,
}

// Package hostchaos is the service-level analogue of internal/chaos: where
// chaos injects protocol faults under the simulated barrier and checks the
// barrier's safety/liveness oracles, hostchaos injects *host* faults under
// the glsimd job server — executor panics, flaky spill disks, queue stalls
// — and checks the service's invariants:
//
//   - accounting: every submitted job reaches exactly one terminal state;
//     none are lost, none are duplicated.
//   - monotonicity: a terminal job never changes state again.
//   - identity: every result cell a faulty run produces is byte-identical
//     to the fault-free baseline for the same input fingerprint (faults
//     may fail jobs, but they must never change bytes).
//   - conservation: the injector's fired ledger reconciles exactly with
//     the server's retry/quarantine/spill metrics — every injected fault
//     is accounted for, none double-counted.
//
// Campaigns explore seeded random host-fault plans; findings are shrunk to
// minimal reproducers and pinned in a corpus (testdata/corpus), exactly
// like the protocol-chaos corpus.
package hostchaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/hostfault"
)

// RunConfig shapes one oracle-checked server run.
type RunConfig struct {
	// Specs are the job specs submitted, in order (empty = DefaultSpecs).
	Specs []string
	// ConcurrentJobs and CellWorkers shape the server's executor pool
	// (<= 0 means 2 each).
	ConcurrentJobs int
	CellWorkers    int
	// CellAttempts is the per-cell attempt bound (<= 0 means 3).
	CellAttempts int
	// SpillDir, when non-empty, arms the cache's disk tier there so the
	// spill fault sites have opportunities to fire.
	SpillDir string
	// PollSteps bounds the terminal-state wait: steps of pollStep each
	// (<= 0 means 12000, i.e. one minute).
	PollSteps int
}

// DefaultSpecs is the standard submission mix: overlapping small grids, so
// runs exercise cache hits, flight sharing and distinct cells at once.
func DefaultSpecs() []string {
	return []string{
		"bench=SYNTH barrier=GL|CSW cores=8 tier=test",
		"bench=SYNTH barrier=GL cores=8|16 tier=test",
		"bench=SYNTH barrier=CSW cores=8 tier=test",
	}
}

func (c RunConfig) withDefaults() RunConfig {
	if len(c.Specs) == 0 {
		c.Specs = DefaultSpecs()
	}
	if c.ConcurrentJobs <= 0 {
		c.ConcurrentJobs = 2
	}
	if c.CellWorkers <= 0 {
		c.CellWorkers = 2
	}
	if c.CellAttempts <= 0 {
		c.CellAttempts = 3
	}
	if c.PollSteps <= 0 {
		c.PollSteps = 12000
	}
	return c
}

// pollStep is the status-poll interval. Waits are counted in steps, not
// wall-clock reads, so runs stay free of time.Now.
const pollStep = 5 * time.Millisecond

// Outcome is one run's observable record, the input to every oracle.
type Outcome struct {
	// Plan is the injected plan (ParsePlan syntax; empty = fault-free).
	Plan string `json:"plan"`
	// Jobs are the final job statuses, and JobsRecheck the same statuses
	// re-fetched afterwards (the monotonicity witness).
	Jobs        []serve.JobStatus `json:"jobs"`
	JobsRecheck []serve.JobStatus `json:"-"`
	// CellBytes maps input fingerprints to the report bytes the run's done
	// cells produced.
	CellBytes map[string][]byte `json:"-"`
	// Counters is the server's final counter snapshot.
	Counters map[string]uint64 `json:"counters,omitempty"`
	// Fired is the injector's per-site fired ledger.
	Fired map[string]uint64 `json:"fired,omitempty"`
	// Violations are the oracle trips (nil = clean run).
	Violations []Violation `json:"violations,omitempty"`
}

// Tripped returns the first violation, or nil for a clean run.
func (o *Outcome) Tripped() *Violation {
	if len(o.Violations) == 0 {
		return nil
	}
	return &o.Violations[0]
}

// Matches reports whether the outcome trips the same oracle/kind as v.
func (o *Outcome) Matches(v Violation) bool {
	for _, got := range o.Violations {
		if got.Oracle == v.Oracle && got.Kind == v.Kind {
			return true
		}
	}
	return false
}

// jobResultDoc mirrors the server's result document (the exported wire
// format; the server-side struct is unexported).
type jobResultDoc struct {
	ID    string         `json:"id"`
	State serve.JobState `json:"state"`
	Cells []struct {
		InputFP string          `json:"input_fingerprint"`
		Error   string          `json:"error,omitempty"`
		Report  json.RawMessage `json:"report,omitempty"`
	} `json:"cells"`
}

// RunPlan drives one in-process glsimd server through the HTTP API under
// the given host-fault plan (nil = fault-free), waits for every job to
// reach a terminal state, and returns the outcome with the oracles in
// baseline-less mode (identity needs a baseline; run it via Check).
// Machinery failures — the server not terminating, HTTP transport errors —
// are returned as errors, never encoded as violations.
func RunPlan(cfg RunConfig, plan *hostfault.Plan) (*Outcome, error) {
	cfg = cfg.withDefaults()
	srv := serve.NewServer(serve.Options{
		ConcurrentJobs: cfg.ConcurrentJobs,
		CellWorkers:    cfg.CellWorkers,
		CacheDir:       cfg.SpillDir,
		CellAttempts:   cfg.CellAttempts,
		RetryBase:      time.Millisecond,
		RetryMax:       4 * time.Millisecond,
		// The budget must never bind in a campaign: a budget-exhausted
		// failure is neither a retry nor a quarantine, which would break
		// the conservation identity the oracles check.
		JobRetryBudget: 1 << 20,
		HostFaults:     plan,
	})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		drainServer(srv, 10*time.Second)
	}()

	out := &Outcome{Plan: plan.String(), CellBytes: map[string][]byte{}}
	var ids []string
	for _, spec := range cfg.Specs {
		st, err := submit(ts.URL, spec)
		if err != nil {
			return nil, fmt.Errorf("hostchaos: submit %q: %w", spec, err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		st, err := waitTerminal(ts.URL, id, cfg.PollSteps)
		if err != nil {
			return nil, err
		}
		out.Jobs = append(out.Jobs, st)
	}
	// Re-fetch after everything settled: terminal states must not move.
	for _, id := range ids {
		st, err := getStatus(ts.URL, id)
		if err != nil {
			return nil, err
		}
		out.JobsRecheck = append(out.JobsRecheck, st)
	}
	for _, id := range ids {
		doc, err := getResult(ts.URL, id)
		if err != nil {
			return nil, err
		}
		for _, c := range doc.Cells {
			if len(c.Report) > 0 && c.Error == "" {
				out.CellBytes[c.InputFP] = append([]byte(nil), c.Report...)
			}
		}
	}
	// A job turns terminal just before its executor counts it, so read the
	// counters once the drain has let every executor return.
	drainServer(srv, 10*time.Second)
	out.Counters = srv.Stats().Counters
	out.Fired = srv.FiredFaults()
	return out, nil
}

// Check runs the oracles over an outcome against a fault-free baseline
// (fingerprint -> report bytes) and records any violations on the outcome.
func Check(cfg RunConfig, out *Outcome, baseline map[string][]byte) {
	cfg = cfg.withDefaults()
	out.Violations = checkOutcome(cfg, out, baseline)
}

// Baseline computes the fault-free reference: one clean run's cell bytes
// by fingerprint. A baseline run must be violation-free on its own
// fault-independent oracles; any trip is returned as an error.
func Baseline(cfg RunConfig) (map[string][]byte, error) {
	out, err := RunPlan(cfg, nil)
	if err != nil {
		return nil, err
	}
	Check(cfg, out, out.CellBytes)
	if v := out.Tripped(); v != nil {
		return nil, fmt.Errorf("hostchaos: fault-free baseline tripped %s", v)
	}
	return out.CellBytes, nil
}

// drainServer drains with a bounded context.
func drainServer(srv *serve.Server, d time.Duration) {
	ctx, cancel := contextWithTimeout(d)
	defer cancel()
	srv.Drain(ctx)
}

// submit posts one job spec.
func submit(base, spec string) (serve.JobStatus, error) {
	body, _ := json.Marshal(map[string]string{"spec": spec})
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.JobStatus{}, err
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return st, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return st, nil
}

func getStatus(base, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("hostchaos: job %s: HTTP %d", id, resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

func getResult(base, id string) (jobResultDoc, error) {
	var doc jobResultDoc
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return doc, err
	}
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("hostchaos: result %s: HTTP %d: %s", id, resp.StatusCode, raw)
	}
	err = json.Unmarshal(raw, &doc)
	return doc, err
}

// waitTerminal polls a job's status until terminal, bounded by steps of
// pollStep.
func waitTerminal(base, id string, steps int) (serve.JobStatus, error) {
	var st serve.JobStatus
	for i := 0; i < steps; i++ {
		var err error
		st, err = getStatus(base, id)
		if err != nil {
			return st, err
		}
		switch st.State {
		case serve.StateDone, serve.StateFailed, serve.StateCanceled:
			return st, nil
		}
		time.Sleep(pollStep)
	}
	return st, fmt.Errorf("hostchaos: job %s not terminal after %d polls (%s)", id, steps, st.State)
}

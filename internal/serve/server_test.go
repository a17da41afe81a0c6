package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// testServer wires a Server to an httptest frontend.
func testServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})
	return srv, ts
}

func postJob(t *testing.T, base, spec string) JobStatus {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"spec": spec})
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d (%+v)", resp.StatusCode, st)
	}
	return st
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil && resp.StatusCode == http.StatusOK {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// waitTerminal blocks until the job finishes (or the test times out).
func waitTerminal(t *testing.T, srv *Server, id string) JobStatus {
	t.Helper()
	j, ok := srv.Job(id)
	if !ok {
		t.Fatalf("no job %s", id)
	}
	select {
	case <-j.finished:
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish: %+v", id, j.status())
	}
	return j.status()
}

// TestServerEndToEndCacheHit runs a real two-cell sweep twice over HTTP
// and proves the second submission is a pure cache hit: zero new
// simulations, every cell served from cache, byte-identical report bytes.
func TestServerEndToEndCacheHit(t *testing.T) {
	srv, ts := testServer(t, Options{ConcurrentJobs: 1, CellWorkers: 2})
	const spec = "bench=SYNTH barrier=GL|CSW cores=8 tier=test"

	st1 := postJob(t, ts.URL, spec)
	st1 = waitTerminal(t, srv, st1.ID)
	if st1.State != StateDone {
		t.Fatalf("first job: %+v", st1)
	}
	if st1.Simulated != 2 || st1.CacheHits != 0 {
		t.Fatalf("first job simulated=%d cacheHits=%d, want 2/0", st1.Simulated, st1.CacheHits)
	}
	if st1.Episodes == 0 || st1.GLLatency.Count == 0 || st1.SWLatency.Count == 0 {
		t.Fatalf("aggregates missing: episodes=%d gl=%d sw=%d",
			st1.Episodes, st1.GLLatency.Count, st1.SWLatency.Count)
	}
	statsBefore := srv.Stats()

	var res1 jobResult
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st1.ID+"/result", &res1); code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}

	st2 := postJob(t, ts.URL, spec)
	st2 = waitTerminal(t, srv, st2.ID)
	if st2.State != StateDone {
		t.Fatalf("second job: %+v", st2)
	}
	if st2.Simulated != 0 || st2.CacheHits != 2 {
		t.Fatalf("second job simulated=%d cacheHits=%d, want 0/2", st2.Simulated, st2.CacheHits)
	}
	for _, c := range st2.Cells {
		if !c.Cached {
			t.Errorf("cell %s not cached", c.Label)
		}
	}
	stats := srv.Stats()
	if got, before := stats.Counters[metricCellsSim], statsBefore.Counters[metricCellsSim]; got != before {
		t.Fatalf("resubmission simulated: %d -> %d", before, got)
	}
	if hits := stats.Counters[metricCacheHits] - statsBefore.Counters[metricCacheHits]; hits != 2 {
		t.Fatalf("cache hits grew by %d, want 2", hits)
	}
	if stats.Histograms[metricQueueWaitMs].Count != 2 {
		t.Fatalf("queue wait histogram count = %d, want 2", stats.Histograms[metricQueueWaitMs].Count)
	}

	// Result documents agree byte-for-byte per cell, and the cell endpoint
	// serves verbatim bytes both times.
	var res2 jobResult
	getJSON(t, ts.URL+"/v1/jobs/"+st2.ID+"/result", &res2)
	for i := range res1.Cells {
		if !bytes.Equal(res1.Cells[i].Report, res2.Cells[i].Report) {
			t.Errorf("cell %s report bytes differ between submissions", res1.Cells[i].Label)
		}
		if res1.Cells[i].ReportFP == "" || res1.Cells[i].ReportFP != res2.Cells[i].ReportFP {
			t.Errorf("cell %s report fingerprints: %q vs %q",
				res1.Cells[i].Label, res1.Cells[i].ReportFP, res2.Cells[i].ReportFP)
		}
		raw1 := fetchCell(t, ts.URL, res1.Cells[i].InputFP)
		raw2 := fetchCell(t, ts.URL, res1.Cells[i].InputFP)
		if !bytes.Equal(raw1, raw2) {
			t.Errorf("cell endpoint bytes differ across fetches")
		}
		var echo struct {
			Fingerprint string `json:"fingerprint"`
		}
		if err := json.Unmarshal(raw1, &echo); err != nil || echo.Fingerprint != res1.Cells[i].ReportFP {
			t.Errorf("cell endpoint fingerprint %q, want %q (err %v)", echo.Fingerprint, res1.Cells[i].ReportFP, err)
		}
	}
}

func fetchCell(t *testing.T, base, fp string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/cells/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cell %s: HTTP %d", fp, resp.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.Bytes()
}

// blockingRunner counts executions and blocks each one until released.
type blockingRunner struct {
	mu       sync.Mutex
	started  chan string // receives a label as each run enters
	release  chan struct{}
	runs     atomic.Int32
	template *sim.Report
}

func newBlockingRunner(t *testing.T) *blockingRunner {
	t.Helper()
	// One real tiny report serves as the template result for every fake
	// run; Report marshaling is read-only, so sharing is safe.
	rep, err := RunCell(context.Background(), Cell{
		Bench: "SYNTH", Barrier: "GL", Cores: 8, Tier: "test",
		Threads: 8, MaxCycles: DefaultMaxCycles,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &blockingRunner{
		started:  make(chan string, 64),
		release:  make(chan struct{}),
		template: rep,
	}
}

func (b *blockingRunner) run(ctx context.Context, c Cell) (*sim.Report, error) {
	b.runs.Add(1)
	b.started <- c.Label()
	select {
	case <-b.release:
		return b.template, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestSingleFlightConcurrentSubmissions submits N identical jobs
// concurrently and proves exactly one simulation executes, with every
// other cell either sharing the flight or hitting the cache.
func TestSingleFlightConcurrentSubmissions(t *testing.T) {
	runner := newBlockingRunner(t)
	srv, ts := testServer(t, Options{ConcurrentJobs: 8, CellWorkers: 2, Runner: runner.run})
	const n = 5
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[i] = postJob(t, ts.URL, "bench=SYNTH barrier=GL cores=8 tier=test").ID
		}()
	}
	wg.Wait()
	// The leader is inside the runner; wait for it, then release everyone.
	<-runner.started
	close(runner.release)

	var simulated, cached, shared int
	for _, id := range ids {
		st := waitTerminal(t, srv, id)
		if st.State != StateDone {
			t.Fatalf("job %s: %+v", id, st)
		}
		c := st.Cells[0]
		if c.ReportFP == "" {
			t.Fatalf("job %s has no report fingerprint", id)
		}
		switch {
		case c.Cached:
			cached++
		case c.SharedFlight:
			shared++
		default:
			simulated++
		}
	}
	if got := runner.runs.Load(); got != 1 {
		t.Fatalf("runner executed %d times for %d identical submissions, want 1", got, n)
	}
	if simulated != 1 || cached+shared != n-1 {
		t.Fatalf("simulated=%d cached=%d shared=%d, want 1 and %d combined", simulated, cached, shared, n-1)
	}
	stats := srv.Stats()
	if stats.Counters[metricCellsSim] != 1 {
		t.Fatalf("cells.simulated = %d, want 1", stats.Counters[metricCellsSim])
	}
	if stats.Counters[metricFlightShared] != uint64(shared) {
		t.Fatalf("flight.shared metric %d != %d shared cells", stats.Counters[metricFlightShared], shared)
	}
}

// TestCancelMidJob cancels a job whose only cell is blocked inside the
// runner and checks the job terminates promptly as canceled, with the
// late runner result dropped.
func TestCancelMidJob(t *testing.T) {
	runner := newBlockingRunner(t)
	srv, ts := testServer(t, Options{ConcurrentJobs: 1, CellWorkers: 1, Runner: runner.run})
	st := postJob(t, ts.URL, "bench=SYNTH barrier=GL cores=8 tier=test")
	<-runner.started // the cell is in flight

	resp, err := http.Post(ts.URL+"/v1/jobs/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", resp.StatusCode)
	}

	final := waitTerminal(t, srv, st.ID)
	if final.State != StateCanceled {
		t.Fatalf("state %s, want canceled", final.State)
	}
	if cs := final.Cells[0].State; !cs.terminal() {
		t.Fatalf("cell state %s not terminal", cs)
	}
	// Releasing the runner later must not corrupt the job.
	close(runner.release)
	time.Sleep(20 * time.Millisecond)
	again := waitTerminal(t, srv, st.ID)
	if again.State != StateCanceled || again.CellsDone != final.CellsDone {
		t.Fatalf("late runner result mutated a terminal job: %+v -> %+v", final, again)
	}
	// A second cancel reports conflict.
	resp2, err := http.Post(ts.URL+"/v1/jobs/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel: HTTP %d, want 409", resp2.StatusCode)
	}
	checkJobTotals(t, srv, 1)
}

// TestCancelFlightLeaderFollowerReruns cancels the job whose cell leads a
// flight while a second job waits on the same fingerprint. The leader's
// run stops; the follower, whose own context is live, runs the cell itself
// and ends done. The canceled job's stopped cell does not count as failed.
func TestCancelFlightLeaderFollowerReruns(t *testing.T) {
	runner := newBlockingRunner(t)
	srv, _ := testServer(t, Options{ConcurrentJobs: 2, CellWorkers: 1, Runner: runner.run})
	const spec = "bench=SYNTH barrier=GL cores=8 tier=test"
	leader, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-runner.started // the leader is mid-cell
	follower, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fp := leader.cells[0].Fingerprint()
	for deadline := time.Now().Add(10 * time.Second); srv.flight.waiting(fp) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second job never joined the flight")
		}
	}
	if !srv.Cancel(leader.id) {
		t.Fatal("cancel of the leader's job failed")
	}
	<-runner.started // the follower re-runs the cell as the new leader
	close(runner.release)
	if st := waitTerminal(t, srv, follower.id); st.State != StateDone {
		t.Fatalf("follower job: %+v", st)
	}
	if st := waitTerminal(t, srv, leader.id); st.State != StateCanceled {
		t.Fatalf("leader job state %s, want canceled", st.State)
	}
	if got := runner.runs.Load(); got != 2 {
		t.Fatalf("runner ran %d times, want 2 (the stopped leader, then the follower)", got)
	}
	if n := srv.Stats().Counters[metricCellsFailed]; n != 0 {
		t.Fatalf("serve.cells.failed = %d, want 0", n)
	}
}

// TestCellTimeoutStopsCell runs a repro-tier cell on the real runner under
// a 200 ms CellTimeout: the job fails on the sweep timeout within a second,
// and the stopped cell is neither retried nor quarantined.
func TestCellTimeoutStopsCell(t *testing.T) {
	srv, _ := testServer(t, Options{ConcurrentJobs: 1, CellWorkers: 1, CellTimeout: 200 * time.Millisecond})
	j, err := srv.Submit("bench=UNSTR barrier=CSW cores=32 tier=repro")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.finished:
	case <-time.After(time.Second):
		t.Fatalf("job still %s a second after submit", j.status().State)
	}
	st := j.status()
	if st.State != StateFailed || !strings.Contains(st.Error, sweep.ErrTimeout.Error()) {
		t.Fatalf("job %s (%q), want failed on %q", st.State, st.Error, sweep.ErrTimeout)
	}
	c := srv.Stats().Counters
	if c[MetricCellRetries] != 0 || c[MetricCellsQuarantined] != 0 {
		t.Fatalf("retries=%d quarantined=%d, want 0 and 0", c[MetricCellRetries], c[MetricCellsQuarantined])
	}
}

// checkJobTotals drains srv, so every executor has returned, then requires
// each of the submitted jobs to be counted exactly once under its
// terminal state.
func checkJobTotals(t *testing.T, srv *Server, submitted uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Drain(ctx)
	c := srv.Stats().Counters
	done, failed, canceled := c[MetricJobsDone], c[MetricJobsFailed], c[MetricJobsCanceled]
	if c[MetricJobsSubmitted] != submitted || done+failed+canceled != submitted {
		t.Fatalf("submitted=%d done=%d failed=%d canceled=%d; want %d submitted, each counted once",
			c[MetricJobsSubmitted], done, failed, canceled, submitted)
	}
}

// TestForcedDrainCountsQueuedJobs: a drain whose context expires cancels
// the running job and finishes the queued one as canceled; both count.
func TestForcedDrainCountsQueuedJobs(t *testing.T) {
	runner := newBlockingRunner(t)
	srv, ts := testServer(t, Options{ConcurrentJobs: 1, CellWorkers: 1, Runner: runner.run})
	running := postJob(t, ts.URL, "bench=SYNTH barrier=GL cores=8 tier=test")
	<-runner.started
	queued := postJob(t, ts.URL, "bench=SYNTH barrier=CSW cores=8 tier=test")

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err == nil {
		t.Fatal("drain with a blocked job returned nil, want the context error")
	}
	for _, id := range []string{running.ID, queued.ID} {
		if st := waitTerminal(t, srv, id); st.State != StateCanceled {
			t.Fatalf("job %s after forced drain: %s, want canceled", id, st.State)
		}
	}
	checkJobTotals(t, srv, 2)
}

// TestResultConflictBeforeTerminal asserts /result answers 409 while the
// job is still running.
func TestResultConflictBeforeTerminal(t *testing.T) {
	runner := newBlockingRunner(t)
	srv, ts := testServer(t, Options{ConcurrentJobs: 1, CellWorkers: 1, Runner: runner.run})
	st := postJob(t, ts.URL, "bench=SYNTH barrier=GL cores=8 tier=test")
	<-runner.started
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/result", nil); code != http.StatusConflict {
		t.Fatalf("result while running: HTTP %d, want 409", code)
	}
	close(runner.release)
	if got := waitTerminal(t, srv, st.ID); got.State != StateDone {
		t.Fatalf("job: %+v", got)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/result", nil); code != http.StatusOK {
		t.Fatalf("result when done: HTTP %d", code)
	}
	_ = srv
}

// TestEventsStream reads the SSE endpoint to the terminal event.
func TestEventsStream(t *testing.T) {
	runner := newBlockingRunner(t)
	srv, ts := testServer(t, Options{
		ConcurrentJobs: 1, CellWorkers: 1, Runner: runner.run,
		WatchInterval: 10 * time.Millisecond,
	})
	st := postJob(t, ts.URL, "bench=SYNTH barrier=GL cores=8 tier=test")
	<-runner.started

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		close(runner.release)
	}()
	var events []string
	var last JobStatus
	done := false
	sc := bufio.NewScanner(resp.Body)
	for !done && sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			events = append(events, name)
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			if err := json.Unmarshal([]byte(data), &last); err != nil {
				t.Fatalf("bad event payload %q: %v", data, err)
			}
			// The data line completes the pending event; stop after the
			// terminal one's payload.
			done = len(events) > 0 && events[len(events)-1] == "done"
		}
	}
	if len(events) == 0 || events[len(events)-1] != "done" {
		t.Fatalf("events = %v, want trailing done", events)
	}
	if last.State != StateDone || last.Episodes == 0 {
		t.Fatalf("final event: %+v", last)
	}
	waitTerminal(t, srv, st.ID)
}

// TestDrain: in-flight and queued jobs finish, new submissions are
// rejected with 503, healthz flips to draining.
func TestDrain(t *testing.T) {
	srv := NewServer(Options{ConcurrentJobs: 1, CellWorkers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st1 := postJob(t, ts.URL, "bench=SYNTH barrier=GL cores=8 tier=test")
	st2 := postJob(t, ts.URL, "bench=SYNTH barrier=CSW cores=8 tier=test")

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()

	// Drain sets its flag on its own goroutine. Poll the read-only health
	// probe until it is set: polling by submission would let a submission
	// that beats Drain become a third job.
	deadline := time.After(10 * time.Second)
	for getJSON(t, ts.URL+"/healthz", nil) != http.StatusServiceUnavailable {
		select {
		case <-deadline:
			t.Fatal("drain never started")
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	// Submissions during drain bounce with 503.
	body, _ := json.Marshal(map[string]string{"spec": "bench=SYNTH cores=8 tier=test"})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain: HTTP %d, want 503", resp.StatusCode)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range []string{st1.ID, st2.ID} {
		j, _ := srv.Job(id)
		if got := j.status(); got.State != StateDone {
			t.Fatalf("job %s after drain: %+v", id, got)
		}
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while drained: HTTP %d, want 503", code)
	}
	checkJobTotals(t, srv, 2)
}

// TestSubmitValidation: bad specs are rejected with 400 and counted.
// TestSubmitBodyLimit: a body over maxSubmitBody is refused with 413
// before its spec is parsed — a spec that would parse, padded past the
// cap, creates no job and is not even counted as a rejected spec.
func TestSubmitBodyLimit(t *testing.T) {
	srv, ts := testServer(t, Options{ConcurrentJobs: 1})
	body, _ := json.Marshal(map[string]string{"spec": "bench=SYNTH cores=8 tier=test" + strings.Repeat(" ", maxSubmitBody)})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: HTTP %d, want 413", resp.StatusCode)
	}
	if n := srv.Stats().Counters[metricJobsRejected]; n != 0 {
		t.Fatalf("jobs.rejected = %d: the oversized spec reached the parser", n)
	}
	if jobs := srv.JobStatuses(); len(jobs) != 0 {
		t.Fatalf("oversized body created jobs %+v", jobs)
	}
}

func TestSubmitValidation(t *testing.T) {
	srv, ts := testServer(t, Options{ConcurrentJobs: 1})
	body, _ := json.Marshal(map[string]string{"spec": "bench=NOPE"})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: HTTP %d", resp.StatusCode)
	}
	if srv.Stats().Counters[metricJobsRejected] != 1 {
		t.Fatalf("jobs.rejected = %d, want 1", srv.Stats().Counters[metricJobsRejected])
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/zzz", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/cells/ffffffffffffffff", nil); code != http.StatusNotFound {
		t.Fatalf("unknown cell: HTTP %d", code)
	}
}

func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke exercises the full loopback server")
	}
	var buf bytes.Buffer
	if err := Smoke(&buf); err != nil {
		t.Fatalf("smoke: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "PASS") {
		t.Fatalf("smoke output missing PASS:\n%s", buf.String())
	}
}

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve/hostfault"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// CellRunner executes one simulation cell. The default (RunCell) builds a
// fresh system and runs the workload; tests inject fakes to count and
// block executions.
type CellRunner func(ctx context.Context, c Cell) (*sim.Report, error)

// Options configure a Server. The zero value serves with sensible
// defaults: 2 concurrent jobs, GOMAXPROCS cell workers, a 1024-entry
// memory cache and no disk spill.
type Options struct {
	// ConcurrentJobs is the number of jobs simulating at once; <= 0 means 2.
	ConcurrentJobs int
	// CellWorkers is the sweep worker count within one job; <= 0 means
	// GOMAXPROCS.
	CellWorkers int
	// QueueDepth bounds jobs waiting to run; <= 0 means 64. A submit past
	// the bound is rejected with 429.
	QueueDepth int
	// CacheEntries sizes the in-memory result cache; <= 0 means 1024.
	CacheEntries int
	// CacheDir enables the write-through disk tier when non-empty.
	CacheDir string
	// CellTimeout bounds one cell's wall-clock run; 0 means unbounded.
	CellTimeout time.Duration
	// Runner overrides the cell executor (tests); nil means RunCell.
	Runner CellRunner
	// WatchInterval is the SSE progress-snapshot period; <= 0 means 500ms.
	WatchInterval time.Duration

	// CellAttempts bounds runs of one cell before it is quarantined;
	// <= 0 means DefaultCellAttempts. 1 disables retries.
	CellAttempts int
	// RetryBase and RetryMax shape the exponential backoff between
	// attempts; zero selects DefaultRetryBase/DefaultRetryMax.
	RetryBase time.Duration
	RetryMax  time.Duration
	// JobRetryBudget bounds total retries across one job's cells; <= 0
	// means DefaultJobRetryBudget.
	JobRetryBudget int
	// HostFaults injects deterministic host failures (executor panics,
	// spill I/O faults, queue stalls) for chaos runs and drills; nil
	// disables injection.
	HostFaults *hostfault.Plan
	// SSEHeartbeat is the period of comment-line heartbeats on the events
	// stream (dead-client detection between progress snapshots); <= 0
	// means 15s.
	SSEHeartbeat time.Duration
	// RequestTimeout bounds non-streaming request handling; 0 means
	// unbounded. The SSE events route is exempt (heartbeats bound it).
	RequestTimeout time.Duration
}

func (o Options) concurrentJobs() int {
	if o.ConcurrentJobs > 0 {
		return o.ConcurrentJobs
	}
	return 2
}

func (o Options) cellWorkers() int {
	if o.CellWorkers > 0 {
		return o.CellWorkers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) queueDepth() int {
	if o.QueueDepth > 0 {
		return o.QueueDepth
	}
	return 64
}

func (o Options) watchInterval() time.Duration {
	if o.WatchInterval > 0 {
		return o.WatchInterval
	}
	return 500 * time.Millisecond
}

func (o Options) sseHeartbeat() time.Duration {
	if o.SSEHeartbeat > 0 {
		return o.SSEHeartbeat
	}
	return 15 * time.Second
}

// Server metric names. All server observability flows through one
// internal/metrics registry (guarded by a mutex — the registry itself is
// single-threaded by contract) and out via GET /v1/stats.
const (
	metricJobsRejected  = "serve.jobs.rejected"
	metricJobsQueued    = "serve.jobs.queued"
	metricJobsRunning   = "serve.jobs.running"
	metricCacheHits     = "serve.cache.hits"
	metricCacheMisses   = "serve.cache.misses"
	metricCacheEvicted  = "serve.cache.evictions"
	metricCacheDiskHits = "serve.cache.disk_hits"
	metricFlightShared  = "serve.flight.shared"
	metricCellsSim      = "serve.cells.simulated"
	metricCellsFailed   = "serve.cells.failed"
	metricQueueWaitMs   = "serve.queue.wait_ms"
	metricCellRunMs     = "serve.cell.run_ms"
)

// Job accounting metric names, exported for the hostchaos accounting
// oracle: once every job has ended, done + failed + canceled == submitted.
const (
	// MetricJobsSubmitted counts accepted job submissions.
	MetricJobsSubmitted = "serve.jobs.submitted"
	// MetricJobsDone counts jobs that finished with every cell done.
	MetricJobsDone = "serve.jobs.done"
	// MetricJobsFailed counts jobs that finished with a failed cell.
	MetricJobsFailed = "serve.jobs.failed"
	// MetricJobsCanceled counts jobs canceled by a client or a forced
	// drain.
	MetricJobsCanceled = "serve.jobs.canceled"
)

// Self-healing metric names, exported for cross-package reads (the
// hostchaos conservation oracles and the glsimd e2e recovery test
// reconcile these against the injector's fired ledger).
const (
	// MetricCellRetries counts retried cell attempts.
	MetricCellRetries = "serve.cell.retries"
	// MetricCellPanics counts executor panics converted into retryable
	// errors by the recover guard.
	MetricCellPanics = "serve.cell.panics"
	// MetricCellsQuarantined counts cells that exhausted their attempts
	// and entered quarantine.
	MetricCellsQuarantined = "serve.cells.quarantined"
	// MetricQuarantineHits counts cells failed fast because their
	// fingerprint was already quarantined.
	MetricQuarantineHits = "serve.quarantine.hits"
	// MetricHTTPPanics counts HTTP handler panics absorbed by the recover
	// middleware.
	MetricHTTPPanics = "serve.http.panics"
	// MetricSpillErrors counts disk-spill failures the cache degraded
	// through (entry stayed in memory).
	MetricSpillErrors = "serve.spill.errors"
	// MetricJournalRecords counts journal appends this process fsync'd.
	MetricJournalRecords = "serve.journal.records"
	// MetricJournalReplayed counts jobs re-submitted from the journal on
	// startup recovery.
	MetricJournalReplayed = "serve.journal.replayed"
	// MetricJournalTorn counts torn/corrupt journal lines dropped on open.
	MetricJournalTorn = "serve.journal.torn"
)

// msBuckets are exponential millisecond buckets for server latencies
// (1ms .. ~17min).
func msBuckets() []uint64 {
	b := make([]uint64, 21)
	for i := range b {
		b[i] = 1 << uint(i)
	}
	return b
}

// serverMetrics holds the server's registered metric handles. Registering
// once at construction keeps every name a package-level const (the
// metricname invariant) and makes updates a locked pointer touch.
type serverMetrics struct {
	jobsSubmitted *metrics.Counter
	jobsRejected  *metrics.Counter
	jobsDone      *metrics.Counter
	jobsFailed    *metrics.Counter
	jobsCanceled  *metrics.Counter
	cacheHits     *metrics.Counter
	cacheMisses   *metrics.Counter
	cacheEvicted  *metrics.Counter
	cacheDiskHits *metrics.Counter
	flightShared  *metrics.Counter
	cellsSim      *metrics.Counter
	cellsFailed   *metrics.Counter
	jobsQueued    *metrics.Gauge
	jobsRunning   *metrics.Gauge
	queueWaitMs   *metrics.Histogram
	cellRunMs     *metrics.Histogram

	cellRetries      *metrics.Counter
	cellPanics       *metrics.Counter
	cellsQuarantined *metrics.Counter
	quarantineHits   *metrics.Counter
	httpPanics       *metrics.Counter
	spillErrors      *metrics.Counter
	journalRecords   *metrics.Counter
	journalReplayed  *metrics.Counter
	journalTorn      *metrics.Counter
}

func newServerMetrics(reg *metrics.Registry) *serverMetrics {
	return &serverMetrics{
		jobsSubmitted: reg.Counter(MetricJobsSubmitted),
		jobsRejected:  reg.Counter(metricJobsRejected),
		jobsDone:      reg.Counter(MetricJobsDone),
		jobsFailed:    reg.Counter(MetricJobsFailed),
		jobsCanceled:  reg.Counter(MetricJobsCanceled),
		cacheHits:     reg.Counter(metricCacheHits),
		cacheMisses:   reg.Counter(metricCacheMisses),
		cacheEvicted:  reg.Counter(metricCacheEvicted),
		cacheDiskHits: reg.Counter(metricCacheDiskHits),
		flightShared:  reg.Counter(metricFlightShared),
		cellsSim:      reg.Counter(metricCellsSim),
		cellsFailed:   reg.Counter(metricCellsFailed),
		jobsQueued:    reg.Gauge(metricJobsQueued),
		jobsRunning:   reg.Gauge(metricJobsRunning),
		queueWaitMs:   reg.Histogram(metricQueueWaitMs, msBuckets()),
		cellRunMs:     reg.Histogram(metricCellRunMs, msBuckets()),

		cellRetries:      reg.Counter(MetricCellRetries),
		cellPanics:       reg.Counter(MetricCellPanics),
		cellsQuarantined: reg.Counter(MetricCellsQuarantined),
		quarantineHits:   reg.Counter(MetricQuarantineHits),
		httpPanics:       reg.Counter(MetricHTTPPanics),
		spillErrors:      reg.Counter(MetricSpillErrors),
		journalRecords:   reg.Counter(MetricJournalRecords),
		journalReplayed:  reg.Counter(MetricJournalReplayed),
		journalTorn:      reg.Counter(MetricJournalTorn),
	}
}

// Server is the glsimd job server: a submit queue, a bounded executor
// running jobs through internal/sweep, the content-addressed result
// cache, and the HTTP API.
type Server struct {
	opts   Options
	cache  *Cache
	flight flightGroup

	// inj is the compiled host-fault plan (nil = no injection).
	inj *hostfault.Injector
	// quarantine is the poison-cell registry.
	quarantine quarantineSet

	// lm serializes registry access: internal/metrics registries are
	// single-threaded by contract, and the server is the one concurrent
	// component in the repo, so the lock lives here rather than in the hot
	// simulator path. m holds the pre-registered handles; it is written
	// once at construction and immutable after.
	lm *metrics.Locked
	m  *serverMetrics

	mu   sync.Mutex
	cond *sync.Cond
	//glvet:guardedby mu
	jobs map[string]*job
	//glvet:guardedby mu
	order []string
	//glvet:guardedby mu
	queue []*job
	//glvet:guardedby mu
	nextID int
	//glvet:guardedby mu
	running int
	//glvet:guardedby mu
	draining bool
	//glvet:guardedby mu
	closed bool
	// journal is the attached write-ahead log (nil = not journaling); set
	// once by AttachJournal before the server takes traffic.
	//glvet:guardedby mu
	journal *Journal

	// base anchors the server's monotonic clock.
	base time.Time
	wg   sync.WaitGroup
}

// NewServer builds a server and starts its executor pool.
func NewServer(opts Options) *Server {
	reg := metrics.NewRegistry()
	s := &Server{
		opts:  opts,
		inj:   hostfault.NewInjector(opts.HostFaults),
		cache: NewCache(opts.CacheEntries, opts.CacheDir),
		lm:    metrics.NewLocked(reg),
		m:     newServerMetrics(reg),
		jobs:  make(map[string]*job),
		base:  now(),
	}
	s.cond = sync.NewCond(&s.mu)
	s.cache.onEvict = func() { s.count(s.m.cacheEvicted, 1) }
	s.cache.onDiskHit = func() { s.count(s.m.cacheDiskHits, 1) }
	if s.inj != nil {
		s.cache.fs = faultFS{fs: s.cache.fs, inj: s.inj}
	}
	for i := 0; i < opts.concurrentJobs(); i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s
}

// now reads the wall clock for server bookkeeping (queue waits, SSE
// pacing). The serve package is host-side infrastructure, not simulator
// code: nothing cycle-accurate derives from these reads, and results stay
// content-addressed by inputs alone.
//
//lint:allow detrand server bookkeeping time, not simulated time
func now() time.Time { return time.Now() }

// monoMs returns milliseconds since server start.
func (s *Server) monoMs() int64 { return now().Sub(s.base).Milliseconds() }

// count adds n to a counter under the registry lock.
func (s *Server) count(c *metrics.Counter, n uint64) { s.lm.Count(c, n) }

// gauge sets a gauge under the registry lock.
func (s *Server) gauge(g *metrics.Gauge, v uint64) { s.lm.SetGauge(g, v) }

// observe records a histogram sample under the registry lock.
func (s *Server) observe(h *metrics.Histogram, v uint64) { s.lm.Observe(h, v) }

// Stats snapshots the server's metrics.
func (s *Server) Stats() metrics.Snapshot { return s.lm.Snapshot() }

// FiredFaults returns the host-fault injector's per-site fired counts
// (empty when no plan is armed). Chaos oracles reconcile these against
// the retry/quarantine metrics: every injected executor fault must be
// accounted for as a retry or a quarantine.
func (s *Server) FiredFaults() map[string]uint64 { return s.inj.FiredBySite() }

// Submit parses, validates and enqueues a job spec. It returns the job
// immediately; execution is asynchronous. When a journal is attached the
// submission is durably recorded before Submit returns — a crash after
// the caller sees the job exists replays it on restart.
func (s *Server) Submit(specStr string) (*job, error) {
	return s.submit("", specStr, true)
}

// submit is the shared enqueue path. id is empty for fresh submissions
// (the server assigns the next sequence id) and preset for journal
// replays; record controls whether a submitted record is appended (replay
// skips it — compaction already preserved the original).
func (s *Server) submit(id, specStr string, record bool) (*job, error) {
	spec, err := ParseJobSpec(specStr)
	if err != nil {
		s.count(s.m.jobsRejected, 1)
		return nil, err
	}
	cells := spec.Cells()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.count(s.m.jobsRejected, 1)
		return nil, errDraining
	}
	if len(s.queue) >= s.opts.queueDepth() {
		s.mu.Unlock()
		s.count(s.m.jobsRejected, 1)
		return nil, errQueueFull
	}
	if id == "" {
		s.nextID++
		id = fmt.Sprintf("j%d", s.nextID)
	}
	j := newJob(id, spec, cells, s.monoMs(), s.opts.jobRetryBudget())
	j.onFinish = func(st JobState, errMsg string) {
		s.appendJournal(journalRecord{T: journalTerminal, ID: j.id, State: st, Err: errMsg})
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.queue = append(s.queue, j)
	queued := len(s.queue)
	s.mu.Unlock()
	if record {
		s.appendJournal(journalRecord{T: journalSubmitted, ID: j.id, Spec: j.specStr})
	}
	s.cond.Signal()
	s.count(s.m.jobsSubmitted, 1)
	s.gauge(s.m.jobsQueued, uint64(queued))
	return j, nil
}

// AttachJournal opens (and compacts) the write-ahead log at path, wires
// every future lifecycle transition through it, and re-submits the
// journaled jobs that never reached a terminal state, preserving their
// ids. Call it once, after NewServer and before serving traffic. It
// returns how many jobs were replayed.
func (s *Server) AttachJournal(path string) (replayed int, err error) {
	jr, pending, maxID, torn, err := OpenJournal(path)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.journal = jr
	if maxID > s.nextID {
		s.nextID = maxID
	}
	s.mu.Unlock()
	if torn > 0 {
		s.count(s.m.journalTorn, uint64(torn))
	}
	for _, p := range pending {
		j, err := s.submit(p.ID, p.Spec, false)
		if err != nil {
			// The journaled spec no longer parses or fits (version skew, a
			// full queue): record a terminal failure so the journal converges
			// instead of replaying it forever.
			s.appendJournal(journalRecord{
				T: journalTerminal, ID: p.ID, State: StateFailed, Err: err.Error(),
			})
			continue
		}
		_ = j
		replayed++
	}
	if replayed > 0 {
		s.count(s.m.journalReplayed, uint64(replayed))
	}
	return replayed, nil
}

// appendJournal writes one record to the attached journal, if any.
// Journal trouble is counted but never fails the job path — a full disk
// must not take the queue down.
func (s *Server) appendJournal(rec journalRecord) {
	s.mu.Lock()
	jr := s.journal
	s.mu.Unlock()
	if jr == nil {
		return
	}
	if err := jr.Append(rec); err == nil {
		s.count(s.m.journalRecords, 1)
	}
}

var (
	errDraining  = errors.New("serve: server is draining")
	errQueueFull = errors.New("serve: job queue is full")
)

// Job looks up a job by ID.
func (s *Server) Job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// JobStatuses lists every job in submission order.
func (s *Server) JobStatuses() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, len(ids))
	for i, id := range ids {
		jobs[i] = s.jobs[id]
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// Cancel aborts a job; queued cells are skipped, in-flight cells are
// stopped. Canceling a terminal job is a no-op returning false.
func (s *Server) Cancel(id string) bool {
	j, ok := s.Job(id)
	if !ok {
		return false
	}
	// A queued job never reaches its executor slot's finish path, so it is
	// finalized here; so is a running one, before its context ends: its
	// stopped cells would otherwise let runJob finish it first.
	if !s.finish(j, StateCanceled, "canceled by client") {
		return false
	}
	j.cancel()
	return true
}

// finish moves j to a terminal state and counts it under that state. A job
// reaches a terminal state once, whichever path gets there first (client
// cancel, its executor, a forced drain), so it is counted once and
// done + failed + canceled == submitted once every job has ended.
func (s *Server) finish(j *job, state JobState, errMsg string) bool {
	if !j.finish(state, errMsg) {
		return false
	}
	switch state {
	case StateDone:
		s.count(s.m.jobsDone, 1)
	case StateFailed:
		s.count(s.m.jobsFailed, 1)
	case StateCanceled:
		s.count(s.m.jobsCanceled, 1)
	}
	return true
}

// executor is one job-execution worker: it pulls queued jobs until the
// server drains or closes.
func (s *Server) executor() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			if s.draining {
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		queued := len(s.queue)
		s.mu.Unlock()
		s.gauge(s.m.jobsQueued, uint64(queued))
		if s.inj.Hit(hostfault.QueueStall, j.id) {
			time.Sleep(time.Duration(s.inj.SlowMillis()) * time.Millisecond)
		}
		s.runJob(j)
	}
}

// runJob executes one job's cells through the sweep pool.
func (s *Server) runJob(j *job) {
	startMs := s.monoMs()
	if !j.start(startMs) {
		// Canceled while queued.
		return
	}
	s.appendJournal(journalRecord{T: journalStarted, ID: j.id})
	s.observe(s.m.queueWaitMs, uint64(startMs-j.enqueuedAt))
	s.mu.Lock()
	s.running++
	running := s.running
	s.mu.Unlock()
	s.gauge(s.m.jobsRunning, uint64(running))
	defer func() {
		s.mu.Lock()
		s.running--
		running := s.running
		s.mu.Unlock()
		s.gauge(s.m.jobsRunning, uint64(running))
	}()

	specs := make([]sweep.Spec, len(j.cells))
	for i := range j.cells {
		i := i
		cell := j.cells[i]
		specs[i] = sweep.Spec{
			Label: cell.Label(),
			Run: func(ctx context.Context) (*sim.Report, error) {
				e, cached, shared, err := s.resolveCell(ctx, cell, j)
				j.finishCell(i, e, cached, shared, err)
				if err != nil {
					// A canceled job's cells were stopped, not failed.
					if j.ctx.Err() == nil {
						s.count(s.m.cellsFailed, 1)
					}
					return nil, err
				}
				// The report already lives in the cache entry; the sweep
				// result itself is unused.
				return nil, nil
			},
		}
	}
	results := sweep.Run(sweep.Options{
		Jobs:    s.opts.cellWorkers(),
		Timeout: s.opts.CellTimeout,
		Ctx:     j.ctx,
	}, specs)

	switch err := sweep.Errs(results); {
	case j.ctx.Err() != nil:
		s.finish(j, StateCanceled, "canceled")
	case err != nil:
		s.finish(j, StateFailed, err.Error())
	default:
		s.finish(j, StateDone, "")
	}
}

// resolveCell produces one cell's result: cache lookup, quarantine
// fast-fail, then single-flight computation (with the retry/backoff loop
// inside the flight, so concurrent identical cells share one retry
// schedule). Identical concurrent cells — within one job or across jobs
// — collapse onto one simulation; identical later cells are pure cache
// hits. Errors are never cached: a failed cell re-runs on resubmit,
// except quarantined fingerprints, which fail fast until cleared.
func (s *Server) resolveCell(ctx context.Context, cell Cell, j *job) (e *Entry, cached, shared bool, err error) {
	fp := cell.Fingerprint()
	if e, ok := s.cache.Get(fp); ok {
		s.count(s.m.cacheHits, 1)
		return e, true, false, nil
	}
	if info, ok := s.quarantine.get(fp); ok {
		s.count(s.m.quarantineHits, 1)
		return nil, false, false, &QuarantineError{
			FP: info.FP, Label: info.Label, Attempts: info.Attempts, Reason: info.Reason,
		}
	}
	s.count(s.m.cacheMisses, 1)
	// A shared flight can fail with the *leader's* context error; when our
	// own context is still live that failure is not ours — retry, at worst
	// becoming the new leader.
	for attempt := 0; ; attempt++ {
		e, shared, err := s.flight.Do(ctx, fp, func() (*Entry, error) {
			return s.runCellAttempts(ctx, cell, j)
		})
		if err != nil && shared && ctx.Err() == nil && attempt < 4 &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			continue
		}
		if err != nil {
			return nil, false, shared, err
		}
		if shared {
			s.count(s.m.flightShared, 1)
		}
		return e, false, shared, nil
	}
}

// Drain stops accepting jobs, lets queued and running jobs finish, and
// returns when the server is idle. When ctx expires first, every
// remaining job is canceled and Drain waits for the executors to unwind.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cond.Broadcast()

	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		s.closeJournal()
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		s.closed = true
		pending := make([]*job, 0, len(s.queue))
		pending = append(pending, s.queue...)
		s.queue = nil
		all := make([]*job, 0, len(s.jobs))
		for _, id := range s.order {
			all = append(all, s.jobs[id])
		}
		s.mu.Unlock()
		s.cond.Broadcast()
		for _, j := range pending {
			s.finish(j, StateCanceled, "server shutdown")
		}
		for _, j := range all {
			j.cancel()
		}
		// The context already expired and every job has been canceled; this
		// final wait is bounded by the executors unwinding and must not be
		// abandoned, or Drain would return with workers still running.
		<-idle //lint:allow ctxflow bounded executor unwind after cancellation, must complete
		s.closeJournal()
		return ctx.Err()
	}
}

// closeJournal detaches and closes the write-ahead log (idempotent); the
// drained server appends nothing further, so the file can be released for
// the next process to compact.
func (s *Server) closeJournal() {
	s.mu.Lock()
	jr := s.journal
	s.journal = nil
	s.mu.Unlock()
	jr.Close()
}

// Handler returns the server's HTTP API.
//
// POST /v1/jobs                 submit {"spec": "..."} -> 202 + status
// GET  /v1/jobs                 list job statuses
// GET  /v1/jobs/{id}            one job's status
// GET  /v1/jobs/{id}/result     full result document (409 until terminal)
// GET  /v1/jobs/{id}/events     SSE progress snapshots until terminal
// POST /v1/jobs/{id}/cancel     abort a job
// GET  /v1/cells/{fp}           one cached report, verbatim bytes
// GET  /v1/quarantine           quarantined fingerprints
// DELETE /v1/quarantine/{fp}    clear one quarantine entry
// GET  /v1/stats                metrics snapshot
// GET  /healthz                 liveness (503 while draining)
//
// The whole API sits behind a recover middleware (handler panics become
// 500s and count serve.http.panics) and, when Options.RequestTimeout is
// set, a timeout handler for every route except the SSE events stream.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"jobs": s.JobStatuses()})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", s.withJob(func(w http.ResponseWriter, r *http.Request, j *job) {
		writeJSON(w, http.StatusOK, j.status())
	}))
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.withJob(s.handleResult))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.withJob(s.handleEvents))
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.withJob(func(w http.ResponseWriter, r *http.Request, j *job) {
		if !s.Cancel(j.id) {
			writeError(w, http.StatusConflict, "job is already terminal")
			return
		}
		writeJSON(w, http.StatusOK, j.status())
	}))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.withJob(func(w http.ResponseWriter, r *http.Request, j *job) {
		s.Cancel(j.id)
		writeJSON(w, http.StatusOK, j.status())
	}))
	mux.HandleFunc("GET /v1/cells/{fp}", s.handleCell)
	mux.HandleFunc("GET /v1/quarantine", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"quarantined": s.quarantine.list()})
	})
	mux.HandleFunc("DELETE /v1/quarantine/{fp}", func(w http.ResponseWriter, r *http.Request) {
		fp := strings.ToLower(r.PathValue("fp"))
		if !s.quarantine.clear(fp) {
			writeError(w, http.StatusNotFound, "fingerprint is not quarantined")
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"cleared": fp})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			writeError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	var h http.Handler = mux
	if d := s.opts.RequestTimeout; d > 0 {
		// The events stream is exempt: it is long-lived by design, bounded
		// by its own heartbeats and the client context instead.
		outer := http.NewServeMux()
		outer.HandleFunc("GET /v1/jobs/{id}/events", s.withJob(s.handleEvents))
		outer.Handle("/", http.TimeoutHandler(h, d, `{"error":"request timed out"}`))
		h = outer
	}
	return s.recoverHandler(h)
}

// recoverHandler is the outermost middleware: a panicking handler becomes
// a 500 with a JSON body instead of a killed connection, and the panic is
// counted. http.ErrAbortHandler re-panics — it is net/http's sanctioned
// way to abort a response and must keep propagating.
func (s *Server) recoverHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.count(s.m.httpPanics, 1)
			writeError(w, http.StatusInternalServerError, "internal server error")
		}()
		next.ServeHTTP(w, r)
	})
}

// maxSubmitBody caps a POST /v1/jobs body at forty times the spec of a
// full grid (MaxGridCells twenty-digit seeds and every other directive,
// about 25 KB), which leaves room for whitespace, repeated alternatives
// and the events a fault plan schedules.
const maxSubmitBody = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Spec string `json:"spec"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody)).Decode(&body); err != nil {
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	j, err := s.Submit(body.Spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, j.status())
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, errQueueFull):
		writeError(w, http.StatusTooManyRequests, err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

func (s *Server) withJob(h func(http.ResponseWriter, *http.Request, *job)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.Job(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "no such job")
			return
		}
		h(w, r, j)
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request, j *job) {
	res, ok := j.result()
	if !ok {
		writeError(w, http.StatusConflict, "job is not terminal yet; poll status or watch events")
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleEvents streams progress snapshots as server-sent events: one
// `progress` event per tick while the job runs, then a final `done` event
// with the terminal status.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, j *job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(event string, st JobStatus) bool {
		raw, err := json.Marshal(st)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, raw); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	ticker := time.NewTicker(s.opts.watchInterval())
	defer ticker.Stop()
	// Heartbeat comments keep the connection visibly alive (and dead
	// clients detectable) when the snapshot interval is long.
	heartbeat := time.NewTicker(s.opts.sseHeartbeat())
	defer heartbeat.Stop()
	for {
		st := j.status()
		if st.State.terminal() {
			send("done", st)
			return
		}
		if !send("progress", st) {
			return
		}
		select {
		case <-ticker.C:
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-j.finished:
		case <-r.Context().Done():
			return
		}
	}
}

// handleCell serves one cached report verbatim — the exact bytes
// sim.Report.JSON produced, so a client diffing two fetches of one
// fingerprint sees byte identity.
func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	fp := strings.ToLower(r.PathValue("fp"))
	e, ok := s.cache.Get(fp)
	if !ok {
		writeError(w, http.StatusNotFound, "no cached result for this fingerprint")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Input-Fingerprint", e.InputFP)
	w.Header().Set("X-Report-Fingerprint", e.ReportFP)
	w.WriteHeader(http.StatusOK)
	w.Write(e.JSON)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(raw)
	w.Write([]byte("\n"))
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	raw, _ := json.Marshal(map[string]string{"error": msg})
	w.Write(raw)
	w.Write([]byte("\n"))
}

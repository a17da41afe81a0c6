package serve

import (
	"context"
	"encoding/json"
	"sync"

	"repro/internal/metrics"
)

// JobState is a job's (or cell's) lifecycle state.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// CellStatus is the externally visible state of one grid cell.
type CellStatus struct {
	Label   string   `json:"label"`
	InputFP string   `json:"input_fingerprint"`
	State   JobState `json:"state"`
	// Cached: the result came out of the cache without simulating.
	Cached bool `json:"cached,omitempty"`
	// SharedFlight: the result came from another in-flight computation of
	// the same fingerprint (single-flight dedup).
	SharedFlight bool   `json:"shared_flight,omitempty"`
	ReportFP     string `json:"report_fingerprint,omitempty"`
	// Retries counts extra attempts this cell's fingerprint consumed while
	// this job owned the flight.
	Retries int    `json:"retries,omitempty"`
	Error   string `json:"error,omitempty"`
}

// JobStatus is the externally visible state of one job: identity, spec,
// per-cell progress, and the merged barrier-latency/watchdog aggregates
// the events stream ships as snapshots.
type JobStatus struct {
	ID    string   `json:"id"`
	Spec  string   `json:"spec"`
	State JobState `json:"state"`

	Cells     []CellStatus `json:"cells"`
	CellsDone int          `json:"cells_done"`
	CacheHits int          `json:"cache_hits"`
	Simulated int          `json:"simulated"`
	Failed    int          `json:"failed"`

	// Episodes is the barrier-episode total across finished cells.
	Episodes uint64 `json:"episodes"`
	// GLLatency and SWLatency merge the finished cells' barrier latency
	// histograms (metrics.HistogramSnapshot.Plus).
	GLLatency metrics.HistogramSnapshot `json:"gl_latency"`
	SWLatency metrics.HistogramSnapshot `json:"sw_latency"`
	// Hangs counts cells that ended in a watchdog hang dump — the events
	// stream's watchdog state.
	Hangs int `json:"hangs"`

	// Retries is the job's total retried cell attempts (bounded by the
	// server's per-job retry budget).
	Retries int `json:"retries,omitempty"`

	// QueueWaitMillis is how long the job sat queued before running.
	QueueWaitMillis int64  `json:"queue_wait_ms"`
	Error           string `json:"error,omitempty"`
}

// job is the server-side state behind a JobStatus.
type job struct {
	id   string
	spec *JobSpec
	// canonical spec string, rendered once at submit.
	specStr string
	cells   []Cell

	// ctx aborts the job's cells; cancel is idempotent.
	ctx    context.Context
	cancel context.CancelFunc

	// enqueuedAt/startedAt are server-relative milliseconds (monotonic
	// since server start — never wall-clock).
	enqueuedAt int64

	// onFinish, when set, observes the first terminal transition (journal
	// terminal records). Called outside the job lock, exactly once.
	onFinish func(JobState, string)

	mu sync.Mutex
	//glvet:guardedby mu
	state JobState
	//glvet:guardedby mu
	startedAt int64
	//glvet:guardedby mu
	cellState []CellStatus
	//glvet:guardedby mu
	done int
	//glvet:guardedby mu
	cacheHits int
	//glvet:guardedby mu
	simulated int
	//glvet:guardedby mu
	failed int
	//glvet:guardedby mu
	episodes uint64
	//glvet:guardedby mu
	glLat metrics.HistogramSnapshot
	//glvet:guardedby mu
	swLat metrics.HistogramSnapshot
	//glvet:guardedby mu
	hangs int
	//glvet:guardedby mu
	waitMs int64
	//glvet:guardedby mu
	errMsg string
	// retryBudget is the remaining cross-cell retry allowance; retries is
	// the total consumed (mirrored into JobStatus).
	//glvet:guardedby mu
	retryBudget int
	//glvet:guardedby mu
	retries int
	// results holds each finished cell's cache entry, indexed like cells;
	// nil for failed/aborted cells.
	//glvet:guardedby mu
	results []*Entry
	// finished closes when the job reaches a terminal state.
	finished chan struct{}
}

func newJob(id string, spec *JobSpec, cells []Cell, enqueuedAt int64, retryBudget int) *job {
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:          id,
		spec:        spec,
		specStr:     spec.String(),
		cells:       cells,
		ctx:         ctx,
		cancel:      cancel,
		enqueuedAt:  enqueuedAt,
		state:       StateQueued,
		cellState:   make([]CellStatus, len(cells)),
		results:     make([]*Entry, len(cells)),
		retryBudget: retryBudget,
		finished:    make(chan struct{}),
	}
	for i, c := range cells {
		j.cellState[i] = CellStatus{
			Label:   c.Label(),
			InputFP: c.Fingerprint(),
			State:   StateQueued,
		}
	}
	return j
}

// status snapshots the job under its lock.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:              j.id,
		Spec:            j.specStr,
		State:           j.state,
		Cells:           append([]CellStatus(nil), j.cellState...),
		CellsDone:       j.done,
		CacheHits:       j.cacheHits,
		Simulated:       j.simulated,
		Failed:          j.failed,
		Episodes:        j.episodes,
		GLLatency:       j.glLat,
		SWLatency:       j.swLat,
		Hangs:           j.hangs,
		Retries:         j.retries,
		QueueWaitMillis: j.waitMs,
		Error:           j.errMsg,
	}
	return st
}

// takeRetry draws one retry from the job's cross-cell budget; false means
// the budget is spent and the caller must fail instead of retrying.
func (j *job) takeRetry() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.retryBudget <= 0 {
		return false
	}
	j.retryBudget--
	return true
}

// noteRetry attributes one consumed retry to the cells carrying fp (for
// per-cell Retries in status; a grid never repeats a fingerprint, but the
// scan tolerates duplicates).
func (j *job) noteRetry(fp string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.retries++
	for i := range j.cellState {
		if j.cellState[i].InputFP == fp {
			j.cellState[i].Retries++
		}
	}
}

// start transitions queued -> running and records the queue wait.
func (j *job) start(nowMs int64) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.startedAt = nowMs
	j.waitMs = nowMs - j.enqueuedAt
	for i := range j.cellState {
		if j.cellState[i].State == StateQueued {
			j.cellState[i].State = StateRunning
		}
	}
	return true
}

// finishCell records one cell's outcome. A cell returning after its job
// turned terminal (Cancel and a forced drain finalize the job before its
// running cells return) is dropped: once a cell or the whole job is
// terminal its state never changes again.
func (j *job) finishCell(i int, e *Entry, cached, shared bool, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	cs := &j.cellState[i]
	if j.state.terminal() || cs.State.terminal() {
		return
	}
	j.done++
	if err != nil {
		cs.State = StateFailed
		cs.Error = err.Error()
		j.failed++
		return
	}
	cs.State = StateDone
	cs.Cached = cached
	cs.SharedFlight = shared
	cs.ReportFP = e.ReportFP
	j.results[i] = e
	if cached {
		j.cacheHits++
	} else if !shared {
		j.simulated++
	}
	j.episodes += e.Episodes
	j.glLat = j.glLat.Plus(e.GLLatency)
	j.swLat = j.swLat.Plus(e.SWLatency)
	if e.Hung {
		j.hangs++
	}
}

// finish moves the job to a terminal state (first transition wins) and
// releases waiters. It reports whether this call made the transition.
func (j *job) finish(state JobState, errMsg string) bool {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return false
	}
	j.state = state
	if errMsg != "" {
		j.errMsg = errMsg
	}
	for i := range j.cellState {
		if !j.cellState[i].State.terminal() {
			j.cellState[i].State = StateCanceled
		}
	}
	onFinish := j.onFinish
	j.mu.Unlock()
	if onFinish != nil {
		onFinish(state, errMsg)
	}
	close(j.finished)
	return true
}

// cellResult is one cell's slice of a job result document.
type cellResult struct {
	Label        string          `json:"label"`
	InputFP      string          `json:"input_fingerprint"`
	ReportFP     string          `json:"report_fingerprint,omitempty"`
	Cached       bool            `json:"cached,omitempty"`
	SharedFlight bool            `json:"shared_flight,omitempty"`
	Error        string          `json:"error,omitempty"`
	Report       json.RawMessage `json:"report,omitempty"`
}

// jobResult is the full result document for a terminal job.
type jobResult struct {
	ID    string       `json:"id"`
	Spec  string       `json:"spec"`
	State JobState     `json:"state"`
	Cells []cellResult `json:"cells"`
}

// result builds the full result document; ok is false until the job is
// terminal.
func (j *job) result() (jobResult, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.terminal() {
		return jobResult{}, false
	}
	res := jobResult{ID: j.id, Spec: j.specStr, State: j.state}
	for i, cs := range j.cellState {
		cr := cellResult{
			Label:        cs.Label,
			InputFP:      cs.InputFP,
			ReportFP:     cs.ReportFP,
			Cached:       cs.Cached,
			SharedFlight: cs.SharedFlight,
			Error:        cs.Error,
		}
		if e := j.results[i]; e != nil {
			cr.Report = json.RawMessage(e.JSON)
		}
		res.Cells = append(res.Cells, cr)
	}
	return res, true
}

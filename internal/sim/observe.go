package sim

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/metrics"
)

// DefaultStallLimit is the engine watchdog default installed by New: abort
// when components stay busy but no event executes for this many consecutive
// cycles. It must exceed any legitimate event-free busy stretch —
// a G-line context stays busy from the first arrival until the release,
// which spans the longest compute phase of any participant — so the limit
// is set far above the workloads' phase lengths while still cutting a real
// livelock ~1000x earlier than the 4G-cycle default budget.
const DefaultStallLimit = 5_000_000

// glMeter sits between the cores' bar_reg and the G-line network, stamping
// per-episode arrival and release cycles into latency/skew histograms. It
// is pure observation: every Arrive is forwarded unchanged and releases are
// metered on their way to the cores, so simulated timing is untouched.
//
// Releases can straggle (a faulty release line reaches some rows or
// clusters cycles after others) and a released core may re-arrive before
// the last straggler, so the meter samples at the FIRST release of an
// episode — latency = firstRelease-lastArrival — and drains the remaining
// releases without restarting the episode.
// Metric names for the per-episode barrier distributions, G-line and
// software flavors.
const (
	metricGLLatency = "barrier.gl.latency"
	metricGLSkew    = "barrier.gl.skew"
	metricSWLatency = "barrier.sw.latency"
	metricSWSkew    = "barrier.sw.skew"
	// metricGLSteps counts G-line context steps (core.Network.Steps): host
	// work, not simulated time.
	metricGLSteps = "gl.steps"
)

// BarrierObserver sees every core-visible G-line barrier event: arrivals as
// cores issue them and releases as they reach the cores (after any guard
// filtering). Pure observation on the metering path — implementations must
// not mutate simulation state. The chaos oracles are the main client.
type BarrierObserver interface {
	BarrierArrive(ctx, core int, cycle uint64)
	BarrierRelease(ctx, core int, cycle uint64)
}

type glMeter struct {
	gl    GLNetwork
	eng   *engine.Engine
	cores []*cpu.Core
	lat   *metrics.Histogram
	skew  *metrics.Histogram

	eps   map[int]*glEpisode
	ctxOf []int // last barrier context each core arrived on
	obs   BarrierObserver
	// tlc, when a timeline is attached, receives arrivals and episode
	// closures for span emission and latency attribution.
	tlc *tlCollector
}

type glEpisode struct {
	arrived     int
	first, last uint64
	outstanding int // releases still due from the already-sampled episode
}

func newGLMeter(gl GLNetwork, eng *engine.Engine, cores []*cpu.Core, reg *metrics.Registry) *glMeter {
	m := &glMeter{
		gl:    gl,
		eng:   eng,
		cores: cores,
		lat:   reg.Histogram(metricGLLatency, metrics.CycleBuckets()),
		skew:  reg.Histogram(metricGLSkew, metrics.CycleBuckets()),
		eps:   make(map[int]*glEpisode),
		ctxOf: make([]int, len(cores)),
	}
	return m
}

// Arrive implements cpu.BarrierEngine: meter the arrival, forward it.
func (m *glMeter) Arrive(core, barrierCtx int) {
	ep := m.eps[barrierCtx]
	if ep == nil {
		ep = &glEpisode{}
		m.eps[barrierCtx] = ep
	}
	now := m.eng.Now()
	if ep.arrived == 0 {
		ep.first, ep.last = now, now
	} else if now > ep.last {
		ep.last = now
	}
	ep.arrived++
	m.ctxOf[core] = barrierCtx
	if m.obs != nil {
		m.obs.BarrierArrive(barrierCtx, core, now)
	}
	if m.tlc != nil {
		m.tlc.arrive(barrierCtx, core, now)
	}
	m.gl.Arrive(core, barrierCtx)
}

// release is the network's release callback: sample the episode at its
// first release, then hand the release to the core.
func (m *glMeter) release(core int) {
	ep := m.eps[m.ctxOf[core]]
	if ep != nil {
		if ep.outstanding == 0 {
			// First release of this episode closes it.
			now := m.eng.Now()
			m.lat.Observe(now - ep.last)
			m.skew.Observe(ep.last - ep.first)
			if m.tlc != nil {
				// Attribute the episode with the exact cycles the latency
				// sample was computed from, so the table reconciles with
				// the histogram.
				m.tlc.close(m.ctxOf[core], ep.first, ep.last, now)
			}
			ep.outstanding = ep.arrived - 1
			ep.arrived = 0
		} else {
			ep.outstanding--
		}
	}
	// Observe before forwarding: a faulty release that the unguarded
	// protocol delivers to a non-waiting core panics inside GLRelease, and
	// the oracle must have seen the violation by then.
	if m.obs != nil {
		m.obs.BarrierRelease(m.ctxOf[core], core, m.eng.Now())
	}
	m.cores[core].GLRelease()
}

// ObserveBarrier installs obs on the barrier metering path. When the G-line
// network runs behind the recovering guard and obs also implements
// core.GuardObserver, the guard's recovery events (suppressions, retries,
// fallbacks, episode closures) are delivered to it as well.
func (s *System) ObserveBarrier(obs BarrierObserver) {
	if s.glm != nil {
		s.glm.obs = obs
	}
	if gobs, ok := obs.(core.GuardObserver); ok {
		s.guardObs = gobs
	}
	// With a timeline attached the collector sits in front of the user
	// observer (it forwards every guard event); otherwise the user observer
	// is installed directly, as before.
	s.installGuardObs()
}

// HangDump is the post-mortem a failed run carries in its report: where the
// simulation stopped, what was queued, what every core was doing, and the
// tail of the span timeline (when one was attached).
type HangDump struct {
	Cycle         uint64                `json:"cycle"`
	Reason        string                `json:"reason"`
	PendingEvents int                   `json:"pending_events"`
	NextEvents    []engine.CyclePending `json:"next_events,omitempty"`
	Cores         []cpu.Status          `json:"cores"`
	// Guard carries the recovering barrier guard's per-context shadow
	// state (arrivals, buffered early arrivals, retry/backoff progress)
	// when the run used one; chaos-found hangs are diagnosed from this.
	Guard []core.GuardCtxStatus `json:"guard,omitempty"`
	// TimelineTail is the most recent slice of the span timeline (when one
	// was attached), showing exactly which barrier phases, coherence steps
	// and releases were in flight when the run wedged.
	TimelineTail []string `json:"timeline_tail,omitempty"`
}

// hangDump snapshots the system state after an engine error.
func (s *System) hangDump(err error) *HangDump {
	d := &HangDump{
		Cycle:         s.Eng.Now(),
		Reason:        err.Error(),
		PendingEvents: s.Eng.Pending(),
		NextEvents:    s.Eng.PendingByCycle(16),
	}
	for i := 0; i < s.launched; i++ {
		d.Cores = append(d.Cores, s.Cores[i].Status())
	}
	if guard, ok := s.GL.(*core.Recovering); ok {
		d.Guard = guard.Status()
	}
	if s.tl != nil {
		for _, e := range s.tl.Tail(hangTimelineTail) {
			d.TimelineTail = append(d.TimelineTail, e.String())
		}
	}
	return d
}

// hangTimelineTail is how many timeline events the watchdog post-mortem
// keeps: enough to cover the wedged episode's recent phases without
// drowning the dump.
const hangTimelineTail = 48

// String renders the dump in the shape of a crash report.
func (d *HangDump) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "--- watchdog dump at cycle %d ---\n", d.Cycle)
	fmt.Fprintf(&b, "reason: %s\n", d.Reason)
	fmt.Fprintf(&b, "pending events: %d\n", d.PendingEvents)
	for _, cp := range d.NextEvents {
		fmt.Fprintf(&b, "  cycle %12d: %d event(s)\n", cp.Cycle, cp.Count)
	}
	for _, cs := range d.Cores {
		fmt.Fprintf(&b, "%s\n", cs)
	}
	for _, gs := range d.Guard {
		fmt.Fprintf(&b, "%s\n", gs)
	}
	if len(d.TimelineTail) > 0 {
		fmt.Fprintf(&b, "last %d timeline events:\n", len(d.TimelineTail))
		for _, line := range d.TimelineTail {
			fmt.Fprintf(&b, "%s\n", line)
		}
	}
	return b.String()
}

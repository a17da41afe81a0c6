package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
)

// Metric names registered by the recovering guard. Exported: the
// experiment tables read them from merged run reports.
const (
	MetricGLRetries          = "gl.retries"
	MetricGLFallbacks        = "gl.fallbacks"
	MetricGLSpuriousReleases = "gl.spurious_releases"
	MetricGLRecoveryLatency  = "gl.recovery.latency"
)

// GuardObserver receives the recovery guard's protocol-level events as they
// happen: suppressed releases, retries, fallbacks and episode closures. It
// is the observation surface the chaos oracles hook into (see
// internal/chaos); a nil observer costs one nil check per event.
type GuardObserver interface {
	// GuardSuppressed fires when a hardware release arrives before the
	// episode is complete (or for an already-released core) and is
	// swallowed by the safety layer.
	GuardSuppressed(ctx, core int, cycle uint64)
	// GuardRetry fires when an expired episode deadline triggers hardware
	// re-arm number `attempt` (1-based).
	GuardRetry(ctx, attempt int, cycle uint64)
	// GuardFallback fires when the guard completes an episode on the
	// software path; sticky reports whether the context has given up on
	// hardware retries entirely.
	GuardFallback(ctx int, cycle uint64, sticky bool)
	// GuardEpisode fires when a logical episode closes: opened/closed are
	// the first-arrival and completion cycles, retries the hardware
	// re-arms it took, viaFallback whether software finished it.
	GuardEpisode(ctx int, opened, closed uint64, retries int, viaFallback bool)
}

// Recovering wraps a G-line network with the fault-tolerance protocol the
// bare wires lack. The guard shadows every episode in software — which
// cores arrived, which were released — and drives an escalation ladder when
// the hardware misbehaves:
//
//  1. Suppression (safety): a hardware release arriving before every
//     participant has arrived is a fault (spurious assertion, miscount); it
//     is swallowed, so no core ever passes an incomplete barrier.
//  2. Retry (liveness): once all participants have arrived, completion is
//     due within Recovery.Timeout cycles. On expiry the guard re-arms the
//     context's controllers (ResetContext) and replays the outstanding
//     arrivals, backing off exponentially across retries.
//  3. Fallback: after Recovery.MaxRetries failed replays the guard
//     completes the episode itself, releasing the waiting cores after
//     Recovery.FallbackPenalty cycles each — the modeled cost of one DSW
//     software-barrier round.
//  4. Sticky fallback: Recovery.StickyAfter consecutive fallback episodes
//     (a stuck-at fault, not transient noise) stop the hardware retries
//     entirely; the context runs on the software path from then on.
//
// With no faults injected the guard is an exact pass-through: arrivals and
// releases forward synchronously and the timeout never fires, so simulated
// timing is bit-identical to the unwrapped network.
type Recovering struct {
	inner *Network
	rec   fault.Recovery
	now   func() uint64
	wake  engine.Waker

	schedule func(delay uint64, fn func())
	release  func(core int)

	ctxs  []*guardCtx
	ctxOf []int // last context each core arrived on

	episodes uint64 // logical completions (guard-owned; see Episodes)

	cRetries   *metrics.Counter
	cFallbacks *metrics.Counter
	cSpurious  *metrics.Counter
	recLat     *metrics.Histogram

	obs GuardObserver
}

// guardCtx is the guard's shadow of one barrier context.
type guardCtx struct {
	parts    []bool
	expected int

	arrived   []bool
	nArrived  int
	released  []bool
	nReleased int

	opened     uint64 // cycle of the episode's first arrival
	deadline   uint64 // completion due by this cycle; 0 = unarmed
	recovering bool   // a recovery step is scheduled
	retries    int
	needReset  bool // hardware state known inconsistent (suppressed release)
	fallbacks  int  // consecutive fallback-completed episodes
	sticky     bool // hardware given up on; software path only

	// early buffers next-episode arrivals from cores that were already
	// released while the current episode is still draining stragglers (a
	// faulty release can reach rows at different times). They are admitted
	// when the episode closes; forwarding them into hardware mid-recovery
	// would race the context resets.
	early []int
}

// NewRecovering wraps inner for a CMP with the given core count. now must
// report the current simulation cycle (the engine's clock).
func NewRecovering(inner *Network, cores int, rec fault.Recovery, now func() uint64) *Recovering {
	r := &Recovering{
		inner: inner,
		rec:   rec.WithDefaults(),
		now:   now,
	}
	r.ctxOf = make([]int, cores)
	for i := 0; i < inner.Contexts(); i++ {
		g := &guardCtx{
			parts:    make([]bool, cores),
			arrived:  make([]bool, cores),
			released: make([]bool, cores),
			expected: cores,
		}
		for c := range g.parts {
			g.parts[c] = true
		}
		r.ctxs = append(r.ctxs, g)
	}
	r.SetMetrics(metrics.NewRegistry())
	return r
}

// SetObserver installs the guard's protocol observer (nil disables).
func (r *Recovering) SetObserver(o GuardObserver) { r.obs = o }

// SetMetrics re-homes the guard's counters and recovery-latency histogram
// into reg.
func (r *Recovering) SetMetrics(reg *metrics.Registry) {
	r.cRetries = reg.Counter(MetricGLRetries)
	r.cFallbacks = reg.Counter(MetricGLFallbacks)
	r.cSpurious = reg.Counter(MetricGLSpuriousReleases)
	r.recLat = reg.Histogram(MetricGLRecoveryLatency, metrics.CycleBuckets())
}

// OnRelease interposes the guard between the network's release path and
// the cores: the inner network reports releases to the guard, which
// forwards the legitimate ones.
func (r *Recovering) OnRelease(schedule func(delay uint64, fn func()), release func(core int)) {
	r.schedule = schedule
	r.release = release
	r.inner.OnRelease(schedule, r.onInnerRelease)
}

// SetParticipants forwards the participant set and resizes the guard's
// expectations. The context must be idle.
func (r *Recovering) SetParticipants(ctxID int, cores []int) error {
	if ctxID < 0 || ctxID >= len(r.ctxs) {
		return fmt.Errorf("gline: context %d out of range [0,%d)", ctxID, len(r.ctxs))
	}
	g := r.ctxs[ctxID]
	if g.nArrived != 0 {
		return fmt.Errorf("gline: context %d has %d arrivals in flight", ctxID, g.nArrived)
	}
	if err := r.inner.SetParticipants(ctxID, cores); err != nil {
		return err
	}
	for i := range g.parts {
		g.parts[i] = false
	}
	for _, c := range cores {
		g.parts[c] = true
	}
	g.expected = len(cores)
	return nil
}

// Arrive records a logical arrival and forwards it to the hardware (unless
// the context has gone sticky-software). A core that was already released
// this episode is arriving at the NEXT barrier while stragglers still
// drain; its arrival is buffered until the episode closes.
func (r *Recovering) Arrive(core int, ctxID int) {
	g := r.ctxs[ctxID]
	if !g.parts[core] {
		panic(fmt.Sprintf("gline: core %d is not a participant of context %d", core, ctxID))
	}
	if g.arrived[core] {
		if g.released[core] {
			g.early = append(g.early, core)
			return
		}
		panic(fmt.Sprintf("gline: core %d arrived twice at context %d", core, ctxID))
	}
	r.admit(ctxID, g, core)
}

// admit applies one arrival to the shadow state and the hardware.
func (r *Recovering) admit(ctxID int, g *guardCtx, core int) {
	now := r.now()
	if g.nArrived == 0 {
		g.opened = now
	}
	g.arrived[core] = true
	g.nArrived++
	r.ctxOf[core] = ctxID
	if !g.sticky {
		r.inner.Arrive(core, ctxID)
	}
	if g.nArrived == g.expected {
		switch {
		case g.sticky:
			r.fallbackComplete(ctxID, g)
		case g.needReset:
			// The hardware lost a release mid-episode; don't wait for a
			// timeout that cannot succeed.
			r.arm(g, now)
		default:
			r.arm(g, now+r.timeout(g.retries))
		}
	}
}

// arm sets the episode deadline and wakes the guard, whose tick on the
// deadline cycle starts recovery.
func (r *Recovering) arm(g *guardCtx, deadline uint64) {
	g.deadline = deadline
	r.wake.Wake()
}

// timeout returns the episode deadline for the given retry count, with
// bounded exponential backoff.
func (r *Recovering) timeout(retries int) uint64 {
	return r.rec.Timeout << uint(retries)
}

// onInnerRelease is the hardware's release callback. Releases before every
// participant has arrived (or duplicates) are faults and are suppressed —
// the affected core stays blocked and is re-released by a later retry or
// fallback.
func (r *Recovering) onInnerRelease(core int) {
	ctxID := r.ctxOf[core]
	g := r.ctxs[ctxID]
	if g.nArrived < g.expected || !g.arrived[core] || g.released[core] {
		r.cSpurious.Inc()
		if r.obs != nil {
			r.obs.GuardSuppressed(ctxID, core, r.now())
		}
		g.needReset = true
		return
	}
	g.released[core] = true
	g.nReleased++
	r.release(core)
	if g.nReleased == g.expected {
		r.completeEpisode(ctxID, g, false)
	}
}

// SetWaker hands the guard and the hardware beneath it the engine handle.
func (r *Recovering) SetWaker(w engine.Waker) {
	r.wake = w
	r.inner.SetWaker(w)
}

// Busy reports whether the hardware has a barrier in flight or any
// episode is open: the engine keeps the clock running toward the deadline
// of a wedged barrier.
func (r *Recovering) Busy() bool {
	if r.inner.Busy() {
		return true
	}
	for _, g := range r.ctxs {
		if g.nArrived > 0 {
			return true
		}
	}
	return false
}

// Tick steps the inner network, then checks episode deadlines. It returns
// the earlier of the inner network's next cycle and the next armed
// deadline.
func (r *Recovering) Tick(cycle uint64) uint64 {
	next := r.inner.Tick(cycle)
	for ctxID, g := range r.ctxs {
		if g.deadline == 0 || g.recovering {
			continue
		}
		if cycle < g.deadline {
			next = min(next, g.deadline)
			continue
		}
		g.recovering = true
		ctxID, g := ctxID, g
		// Recovery runs as an engine event: it keeps the decision out of
		// the tick phase and resets the stall watchdog, which would
		// otherwise accumulate across back-to-back retry waits.
		r.schedule(1, func() {
			g.recovering = false
			r.recover(ctxID, g)
		})
	}
	return next
}

// recover handles an expired episode deadline.
func (r *Recovering) recover(ctxID int, g *guardCtx) {
	if g.deadline == 0 {
		return // episode completed while the recovery event was in flight
	}
	if g.nReleased > 0 || g.retries >= r.rec.MaxRetries {
		// Release propagation wedged after a completed dance, or retries
		// exhausted: finish the episode in software.
		r.fallbackComplete(ctxID, g)
		return
	}
	g.retries++
	r.cRetries.Inc()
	if r.obs != nil {
		r.obs.GuardRetry(ctxID, g.retries, r.now())
	}
	if err := r.inner.ResetContext(ctxID); err != nil {
		panic(fmt.Sprintf("gline: recovery reset failed: %v", err))
	}
	g.needReset = false
	for _, core := range r.outstanding(g) {
		r.inner.Arrive(core, ctxID)
	}
	r.arm(g, r.now()+r.timeout(g.retries))
}

// fallbackComplete finishes the current episode on the software path:
// quiet the hardware, release every still-waiting core after the fallback
// penalty, and account the episode.
func (r *Recovering) fallbackComplete(ctxID int, g *guardCtx) {
	r.cFallbacks.Inc()
	g.fallbacks++
	if r.rec.StickyAfter > 0 && g.fallbacks >= r.rec.StickyAfter {
		g.sticky = true
	}
	if r.obs != nil {
		r.obs.GuardFallback(ctxID, r.now(), g.sticky)
	}
	if err := r.inner.ResetContext(ctxID); err != nil {
		panic(fmt.Sprintf("gline: fallback reset failed: %v", err))
	}
	for _, core := range r.outstanding(g) {
		core := core
		g.released[core] = true
		g.nReleased++
		r.schedule(r.rec.FallbackPenalty, func() { r.release(core) })
	}
	r.completeEpisode(ctxID, g, true)
}

// outstanding returns the arrived-but-unreleased cores in ascending core
// order (the deterministic replay/release order).
func (r *Recovering) outstanding(g *guardCtx) []int {
	var cores []int
	for c, a := range g.arrived {
		if a && !g.released[c] {
			cores = append(cores, c)
		}
	}
	return cores
}

// completeEpisode closes the current logical episode and resets the shadow
// state for the next one. Episodes that needed any recovery leave the
// hardware re-armed so stale controller state can never leak forward.
func (r *Recovering) completeEpisode(ctxID int, g *guardCtx, viaFallback bool) {
	r.episodes++
	recovered := viaFallback || g.retries > 0 || g.needReset
	if recovered {
		r.recLat.Observe(r.now() - g.opened)
	}
	if r.obs != nil {
		r.obs.GuardEpisode(ctxID, g.opened, r.now(), g.retries, viaFallback)
	}
	if !viaFallback {
		g.fallbacks = 0
		if recovered {
			if err := r.inner.ResetContext(ctxID); err != nil {
				panic(fmt.Sprintf("gline: post-episode reset failed: %v", err))
			}
		}
	}
	for c := range g.arrived {
		g.arrived[c] = false
		g.released[c] = false
	}
	g.nArrived = 0
	g.nReleased = 0
	g.deadline = 0
	g.retries = 0
	g.needReset = false
	// Open the next episode with the buffered early arrivals. A recursive
	// completion (sticky fallback with every core buffered) swaps in a
	// fresh queue, so the remaining admissions land in the episode after.
	early := g.early
	g.early = nil
	for _, core := range early {
		r.admit(ctxID, g, core)
	}
}

// GuardCtxStatus is a point-in-time snapshot of one guarded context's
// shadow state, carried by the hang watchdog's post-mortem dump so a
// wedged barrier is diagnosable without re-running the simulation.
type GuardCtxStatus struct {
	Ctx           int    `json:"ctx"`
	Episode       uint64 `json:"episode"`  // logical episodes completed so far
	Expected      int    `json:"expected"` // participants this episode waits for
	Arrived       int    `json:"arrived"`
	Released      int    `json:"released"`
	BufferedEarly int    `json:"buffered_early"` // next-episode arrivals held back
	Opened        uint64 `json:"opened,omitempty"`
	Deadline      uint64 `json:"deadline,omitempty"` // 0 = unarmed
	Retries       int    `json:"retries"`
	Fallbacks     int    `json:"consecutive_fallbacks"`
	NeedReset     bool   `json:"need_reset"`
	Recovering    bool   `json:"recovering"`
	Sticky        bool   `json:"sticky"`
}

// String renders the snapshot as one dump line.
func (s GuardCtxStatus) String() string {
	line := fmt.Sprintf("guard ctx %d: episode=%d arrived=%d/%d released=%d early=%d retries=%d fallbacks=%d",
		s.Ctx, s.Episode, s.Arrived, s.Expected, s.Released, s.BufferedEarly, s.Retries, s.Fallbacks)
	if s.Deadline != 0 {
		line += fmt.Sprintf(" deadline=%d (opened %d)", s.Deadline, s.Opened)
	}
	switch {
	case s.Sticky:
		line += " STICKY-FALLBACK"
	case s.Recovering:
		line += " RECOVERING"
	case s.NeedReset:
		line += " NEED-RESET"
	}
	return line
}

// Status snapshots every context's guard state for post-mortem dumps.
func (r *Recovering) Status() []GuardCtxStatus {
	out := make([]GuardCtxStatus, len(r.ctxs))
	for i, g := range r.ctxs {
		out[i] = GuardCtxStatus{
			Ctx:           i,
			Episode:       r.episodes,
			Expected:      g.expected,
			Arrived:       g.nArrived,
			Released:      g.nReleased,
			BufferedEarly: len(g.early),
			Retries:       g.retries,
			Fallbacks:     g.fallbacks,
			NeedReset:     g.needReset,
			Recovering:    g.recovering,
			Sticky:        g.sticky,
		}
		if g.nArrived > 0 {
			out[i].Opened = g.opened
			out[i].Deadline = g.deadline
		}
	}
	return out
}

// Episodes returns the guard's logical completion count: one per barrier
// episode regardless of how many hardware retries it took. The inner
// network's own count is not meaningful under recovery (a retried episode
// may complete in hardware zero or several times).
func (r *Recovering) Episodes() uint64 { return r.episodes }

// Retries returns total hardware retry attempts, for tests.
func (r *Recovering) Retries() uint64 { return r.cRetries.Value() }

// Fallbacks returns total software-fallback completions, for tests.
func (r *Recovering) Fallbacks() uint64 { return r.cFallbacks.Value() }

// Toggles delegates to the hardware.
func (r *Recovering) Toggles() uint64 { return r.inner.Toggles() }

// LineCount delegates to the hardware.
func (r *Recovering) LineCount() int { return r.inner.LineCount() }

// ActiveCycles delegates to the hardware.
func (r *Recovering) ActiveCycles() uint64 { return r.inner.ActiveCycles() }

// Steps delegates to the hardware.
func (r *Recovering) Steps() uint64 { return r.inner.Steps() }

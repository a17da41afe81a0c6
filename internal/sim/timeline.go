package sim

import (
	"repro/internal/core"
	"repro/internal/trace"
)

// Timeline span names on the barrier tracks. Each completed G-line episode
// renders as one spanEpisode with nested phase spans whose durations sum
// exactly to the episode span; arrivals and guard recovery events are
// instants.
const (
	spanEpisode       = "barrier.episode"
	spanArrive        = "barrier.arrive"
	spanPhaseArrive   = "barrier.phase.arrive"
	spanPhaseRetry    = "barrier.phase.retry"
	spanPhaseGather   = "barrier.phase.gather"
	spanPhaseRelease  = "barrier.phase.release"
	spanPhaseFallback = "barrier.phase.fallback"
	spanGLSuppress    = "gl.suppress"
	spanGLRetry       = "gl.retry"
	spanGLFallback    = "gl.fallback"
)

// EpisodeAttribution breaks one G-line barrier episode's cycles down by
// phase. All phases are disjoint intervals covering [Start, End]:
//
//	ArriveWait  first arrival -> last arrival (stragglers),
//	Retry       last arrival -> last guard retry (timeout/backoff rounds),
//	Gather      retry end -> protocol completion at the root master,
//	Release     completion -> first core release (release propagation),
//	Fallback    cycles spent in the software fallback path instead of
//	            gather+release, when the guard gave up on the wires.
//
// Latency (= End - last arrival = Retry+Gather+Release+Fallback) matches
// the barrier.gl.latency histogram sample of the same episode exactly.
type EpisodeAttribution struct {
	Ctx         int    `json:"ctx"`
	Episode     uint64 `json:"episode"`
	Start       uint64 `json:"start"`
	End         uint64 `json:"end"`
	ArriveWait  uint64 `json:"arrive_wait"`
	Gather      uint64 `json:"gather"`
	Release     uint64 `json:"release"`
	Retry       uint64 `json:"retry_backoff"`
	Fallback    uint64 `json:"fallback"`
	Latency     uint64 `json:"latency"`
	Retries     int    `json:"retries,omitempty"`
	ViaFallback bool   `json:"via_fallback,omitempty"`
}

// ctxScratch accumulates one context's in-flight episode marks between
// arrivals and the closing release.
type ctxScratch struct {
	ordinal      uint64 // completed episodes, 1-based after close
	lastRetry    uint64 // cycle of the latest guard retry, 0 if none
	fallbackAt   uint64 // cycle the guard fell back, 0 if none
	lastComplete uint64 // cycle the hardware protocol completed, 0 if none
	retries      int
}

// tlCollector turns barrier metering events (arrivals and first releases
// from the glMeter, completions from the network's episode probe, recovery
// events from the guard) into barrier-track timeline spans and the
// per-episode attribution table. It implements core.GuardObserver and
// forwards every guard event to fwd, so chaos oracles keep observing when a
// timeline is attached.
type tlCollector struct {
	tl       *trace.Timeline
	scratch  map[int]*ctxScratch
	episodes []EpisodeAttribution
	fwd      core.GuardObserver
}

func newTLCollector(tl *trace.Timeline) *tlCollector {
	return &tlCollector{tl: tl, scratch: make(map[int]*ctxScratch)}
}

func (c *tlCollector) ctx(id int) *ctxScratch {
	s := c.scratch[id]
	if s == nil {
		s = &ctxScratch{}
		c.scratch[id] = s
	}
	return s
}

// arrive records one core's arrival (glMeter.Arrive hook).
func (c *tlCollector) arrive(ctx, coreID int, cycle uint64) {
	s := c.ctx(ctx)
	c.tl.Instant(trace.BarrierTrack(ctx), spanArrive, cycle, s.ordinal+1, uint64(coreID))
}

// complete records the hardware protocol's completion cycle (the network's
// episode probe).
func (c *tlCollector) complete(ctx int, cycle uint64) {
	c.ctx(ctx).lastComplete = cycle
}

func clamp(v, lo, hi uint64) uint64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// close attributes one finished episode: first/last are the meter's first
// and last arrival cycles, end the first-release cycle that closed the
// episode. Called by glMeter.release exactly when it samples the latency
// histogram, so Latency reconciles with barrier.gl.latency by construction.
func (c *tlCollector) close(ctx int, first, last, end uint64) {
	s := c.ctx(ctx)
	s.ordinal++

	a := EpisodeAttribution{
		Ctx:         ctx,
		Episode:     s.ordinal,
		Start:       first,
		End:         end,
		Retries:     s.retries,
		ViaFallback: s.fallbackAt != 0,
	}
	arriveEnd := clamp(last, first, end)
	a.ArriveWait = arriveEnd - first
	a.Latency = end - arriveEnd
	if a.ViaFallback {
		// The guard abandoned the wires: retry rounds up to the fallback
		// decision, then the software fallback path carries the episode to
		// the release. No hardware gather/release phases to attribute.
		retryEnd := clamp(s.fallbackAt, arriveEnd, end)
		a.Retry = retryEnd - arriveEnd
		a.Fallback = end - retryEnd
	} else {
		retryEnd := arriveEnd
		if s.lastRetry != 0 {
			retryEnd = clamp(s.lastRetry, arriveEnd, end)
		}
		gatherEnd := end
		if s.lastComplete != 0 {
			gatherEnd = clamp(s.lastComplete, retryEnd, end)
		}
		a.Retry = retryEnd - arriveEnd
		a.Gather = gatherEnd - retryEnd
		a.Release = end - gatherEnd
	}

	tr := trace.BarrierTrack(ctx)
	c.tl.Span(tr, spanEpisode, first, end, s.ordinal, uint64(s.retries))
	cursor := first
	phase := func(name string, d uint64) {
		if d > 0 {
			//lint:allow spanname forwards the spanPhase* consts passed below
			c.tl.Span(tr, name, cursor, cursor+d, s.ordinal, 0)
		}
		cursor += d
	}
	phase(spanPhaseArrive, a.ArriveWait)
	phase(spanPhaseRetry, a.Retry)
	phase(spanPhaseGather, a.Gather)
	phase(spanPhaseRelease, a.Release)
	phase(spanPhaseFallback, a.Fallback)

	c.episodes = append(c.episodes, a)
	s.lastRetry, s.fallbackAt, s.lastComplete, s.retries = 0, 0, 0, 0
}

// GuardSuppressed implements core.GuardObserver: a spurious hardware
// release was filtered; arg carries the core it targeted.
func (c *tlCollector) GuardSuppressed(ctx, coreID int, cycle uint64) {
	s := c.ctx(ctx)
	c.tl.Instant(trace.BarrierTrack(ctx), spanGLSuppress, cycle, s.ordinal+1, uint64(coreID))
	if c.fwd != nil {
		c.fwd.GuardSuppressed(ctx, coreID, cycle)
	}
}

// GuardRetry implements core.GuardObserver: the guard reset the wedged
// context and replayed arrivals; arg carries the attempt number.
func (c *tlCollector) GuardRetry(ctx, attempt int, cycle uint64) {
	s := c.ctx(ctx)
	s.lastRetry = cycle
	s.retries = attempt
	c.tl.Instant(trace.BarrierTrack(ctx), spanGLRetry, cycle, s.ordinal+1, uint64(attempt))
	if c.fwd != nil {
		c.fwd.GuardRetry(ctx, attempt, cycle)
	}
}

// GuardFallback implements core.GuardObserver: the guard abandoned the
// wires for the software fallback; arg is 1 when the fallback is sticky.
func (c *tlCollector) GuardFallback(ctx int, cycle uint64, sticky bool) {
	s := c.ctx(ctx)
	s.fallbackAt = cycle
	var arg uint64
	if sticky {
		arg = 1
	}
	c.tl.Instant(trace.BarrierTrack(ctx), spanGLFallback, cycle, s.ordinal+1, arg)
	if c.fwd != nil {
		c.fwd.GuardFallback(ctx, cycle, sticky)
	}
}

// GuardEpisode implements core.GuardObserver; the collector closes episodes
// on the metering path instead, so this only forwards.
func (c *tlCollector) GuardEpisode(ctx int, opened, closed uint64, retries int, viaFallback bool) {
	if c.fwd != nil {
		c.fwd.GuardEpisode(ctx, opened, closed, retries, viaFallback)
	}
}

// AttachTimeline installs a span timeline of the given capacity across the
// whole system — engine fast-forwards, coherence transactions, NoC port
// occupancy, CPU op handshakes, G-line pulses and barrier episodes — and
// returns it. Must be called before Launch. Observation only: simulated
// timing and fingerprints are unchanged.
func (s *System) AttachTimeline(capacity int) *trace.Timeline {
	tl := trace.NewTimeline(capacity)
	s.tl = tl
	s.tlc = newTLCollector(tl)
	s.Eng.SetTimeline(tl)
	s.Prot.SetTimeline(tl)
	for _, c := range s.Cores {
		c.SetTimeline(tl)
	}
	if s.glm != nil {
		s.glm.tlc = s.tlc
	}
	s.wireGLTimeline()
	s.installGuardObs()
	return tl
}

// wireGLTimeline attaches the timeline and episode probe to the G-line
// network.
func (s *System) wireGLTimeline() {
	if s.tl == nil || s.glNet == nil {
		return
	}
	s.glNet.SetTimeline(s.tl)
	s.glNet.SetEpisodeProbe(s.tlc.complete)
}

// installGuardObs points the recovering guard's observer at the timeline
// collector (which forwards to any user observer) or, with no timeline, at
// the user observer directly.
func (s *System) installGuardObs() {
	guard, ok := s.GL.(*core.Recovering)
	if !ok {
		return
	}
	if s.tlc != nil {
		s.tlc.fwd = s.guardObs
		guard.SetObserver(s.tlc)
	} else if s.guardObs != nil {
		guard.SetObserver(s.guardObs)
	}
}

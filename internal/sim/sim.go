// Package sim assembles the full simulated CMP — cores, coherent memory
// hierarchy, mesh NoC and G-line barrier network — and runs programs on it
// to completion, producing the statistics the paper's evaluation reports.
package sim

import (
	"fmt"

	"repro/internal/barrier"
	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/noc"
	"repro/internal/stats"
	"repro/internal/trace"
)

// heapBase is where workload allocations start; any non-zero line-aligned
// value works (addresses are synthetic).
const heapBase = 0x1000_0000

// GLNetwork is the interface both the flat and the hierarchical G-line
// networks satisfy. The system registers it with the engine as a
// component and hands it the resulting Waker.
type GLNetwork interface {
	engine.Component
	SetWaker(w engine.Waker)
	Arrive(core int, barrierCtx int)
	OnRelease(schedule func(delay uint64, fn func()), release func(core int))
	SetParticipants(ctxID int, cores []int) error
	Episodes() uint64
	Toggles() uint64
	LineCount() int
	ActiveCycles() uint64
	Steps() uint64
}

// System is one simulated CMP instance. Build it with New, install
// programs with Launch, then Run.
type System struct {
	Cfg   config.Config
	Eng   *engine.Engine
	Prot  *coherence.Protocol
	Memv  *mem.Store
	Alloc *mem.Allocator
	GL    GLNetwork
	Cores []*cpu.Core

	// SWEpisodes counts software barrier episodes (the G-line network
	// counts hardware episodes itself).
	SWEpisodes uint64

	// Metrics is the system-level registry: barrier episode latency and
	// skew histograms for both hardware and software barriers. Component
	// registries (engine, protocol, mesh) are merged into the report's
	// snapshot alongside it.
	Metrics *metrics.Registry

	glm      *glMeter
	glSteps  *metrics.Counter // host work: G-line context steps
	inj      *fault.Injector
	launched int

	// tl/tlc are set by AttachTimeline: the structured span timeline and
	// the collector deriving barrier-episode attribution from it. guardObs
	// is the user's guard observer (chaos oracles), kept so timeline
	// attachment can chain in front of it.
	tl       *trace.Timeline
	tlc      *tlCollector
	guardObs core.GuardObserver
}

// New builds a system for the given configuration. A flat G-line network
// is used when the mesh fits the electrical limit; otherwise a hierarchical
// one is built automatically.
func New(cfg config.Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := engine.New()
	memv := mem.NewStore()
	prot := coherence.New(eng, cfg, memv)

	var inj *fault.Injector
	if cfg.Faults != nil {
		inj = fault.NewInjector(cfg.Faults)
		prot.SetInjector(inj)
	}

	var gl GLNetwork
	if cfg.GLContexts > 0 {
		var err error
		gl, err = buildGL(cfg)
		if err != nil {
			return nil, err
		}
	}

	s := &System{
		Cfg:     cfg,
		Eng:     eng,
		Prot:    prot,
		Memv:    memv,
		Alloc:   mem.NewAllocator(heapBase, cfg.LineSize),
		GL:      gl,
		Metrics: metrics.NewRegistry(),
		inj:     inj,
	}
	s.glSteps = s.Metrics.Counter(metricGLSteps)
	if inj != nil {
		inj.Bind(s.Metrics)
		if gl != nil {
			gl = s.instrumentGL(gl)
			s.GL = gl
		}
	}
	eng.StallLimit = DefaultStallLimit
	s.Cores = make([]*cpu.Core, cfg.Cores)
	// The meter wraps the G-line network as the cores' BarrierEngine; with
	// no network the cores get a true nil interface (a nil *glMeter would
	// defeat the core's nil check).
	var be cpu.BarrierEngine
	if gl != nil {
		s.glm = newGLMeter(gl, eng, s.Cores, s.Metrics)
		be = s.glm
	}
	for i := 0; i < cfg.Cores; i++ {
		s.Cores[i] = cpu.NewCore(i, eng, cfg.IssueWidth, cfg.GLCallOverhead, prot.L1(i), be)
	}
	if gl != nil {
		gl.OnRelease(eng.After, s.glm.release)
		gl.SetWaker(eng.AddComponent(gl))
	}
	return s, nil
}

// instrumentGL hooks the fault injector into a G-line network and, unless
// the plan opts out, wraps it in the recovering barrier protocol.
func (s *System) instrumentGL(gl GLNetwork) GLNetwork {
	switch g := gl.(type) {
	case *core.Network:
		g.SetInjector(s.inj)
	case *core.Hierarchical:
		g.SetInjector(s.inj)
	}
	if s.Cfg.Faults.Recovery.Disabled {
		return gl
	}
	bn, ok := gl.(core.BarrierNetwork)
	if !ok {
		// A custom network without ResetContext can be injected into but
		// not guarded.
		return gl
	}
	guard := core.NewRecovering(bn, s.Cfg.Cores, s.Cfg.Faults.Recovery, s.Eng.Now)
	guard.SetMetrics(s.Metrics)
	return guard
}

// buildGL constructs the barrier network matching the mesh size.
func buildGL(cfg config.Config) (GLNetwork, error) {
	if cfg.GLFitsFlat() {
		return core.NewNetwork(core.NetworkConfig{
			Cols:            cfg.MeshCols,
			Rows:            cfg.MeshRows,
			MaxTransmitters: cfg.GLMaxTransmitters,
			Contexts:        cfg.GLContexts,
			Mux:             core.MuxSpace,
		})
	}
	span, err := ChooseSpan(cfg.MeshCols, cfg.MeshRows, cfg.GLMaxTransmitters)
	if err != nil {
		return nil, err
	}
	return core.NewHierarchical(cfg.MeshCols, cfg.MeshRows, span, cfg.GLMaxTransmitters, cfg.GLContexts)
}

// ChooseSpan picks the smallest balanced cluster span for a mesh exceeding
// the flat limit, such that both the cluster dimensions and the number of
// clusters respect the per-line transmitter limit.
func ChooseSpan(cols, rows, maxTx int) (int, error) {
	for span := 2; span <= maxTx+1; span++ {
		gridC := (cols + span - 1) / span
		gridR := (rows + span - 1) / span
		if gridC*gridR-1 <= maxTx {
			return span, nil
		}
	}
	return 0, fmt.Errorf("sim: no single-level cluster span covers a %dx%d mesh with %d transmitters per line", cols, rows, maxTx)
}

// ReplaceGL swaps the barrier network before any program launches; used by
// ablation studies to install hierarchical or time-multiplexed variants.
func (s *System) ReplaceGL(gl GLNetwork) {
	if s.launched > 0 {
		panic("sim: ReplaceGL after Launch")
	}
	if s.inj != nil {
		gl = s.instrumentGL(gl)
	}
	s.GL = gl
	if s.glm == nil {
		s.glm = newGLMeter(gl, s.Eng, s.Cores, s.Metrics)
	} else {
		s.glm.gl = gl
	}
	gl.OnRelease(s.Eng.After, s.glm.release)
	gl.SetWaker(s.Eng.AddComponent(gl))
	for _, c := range s.Cores {
		c.SetBarrierEngine(s.glm)
	}
	if s.tl != nil {
		s.glm.tlc = s.tlc
		s.wireGLTimeline()
		s.installGuardObs()
	}
}

// NewBarrier builds a barrier of the given kind over this system's memory
// for n threads (tids 0..n-1), using G-line context 0 for KindGL.
func (s *System) NewBarrier(kind barrier.Kind, n int) (barrier.Barrier, error) {
	if kind == barrier.KindGL {
		if s.GL == nil {
			return nil, fmt.Errorf("sim: configuration has no G-line network (GLContexts=0)")
		}
		if n != s.Cfg.Cores {
			if err := s.GL.SetParticipants(0, firstN(n)); err != nil {
				return nil, err
			}
		}
	}
	b, err := barrier.New(kind, s.Alloc, n, &s.SWEpisodes, 0)
	if err != nil {
		return nil, err
	}
	if rb, ok := b.(barrier.Recordable); ok {
		rb.SetRecorder(&barrier.EpisodeRecorder{
			Latency: s.Metrics.Histogram(metricSWLatency, metrics.CycleBuckets()),
			Skew:    s.Metrics.Histogram(metricSWSkew, metrics.CycleBuckets()),
		})
	}
	return b, nil
}

func firstN(n int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = i
	}
	return v
}

// Launch starts one program per core, programs[i] on core i. Fewer
// programs than cores leaves the remaining cores idle.
func (s *System) Launch(programs []cpu.Program) error {
	if len(programs) > len(s.Cores) {
		return fmt.Errorf("sim: %d programs for %d cores", len(programs), len(s.Cores))
	}
	for i, p := range programs {
		if p == nil {
			return fmt.Errorf("sim: nil program for core %d", i)
		}
		s.Cores[i].Start(p)
	}
	s.launched = len(programs)
	return nil
}

// Run drives the simulation until every launched program finishes or
// maxCycles elapses. It returns the report even on error (partial stats
// are useful for diagnosing hangs).
func (s *System) Run(maxCycles uint64) (*Report, error) {
	if s.launched == 0 {
		return nil, fmt.Errorf("sim: no programs launched")
	}
	done := func() bool {
		for i := 0; i < s.launched; i++ {
			if !s.Cores[i].Done() {
				return false
			}
		}
		return true
	}
	endCycle, engErr := s.Eng.Run(maxCycles, done)
	err := engErr
	if err == nil {
		for i := 0; i < s.launched; i++ {
			if cerr := s.Cores[i].Err(); cerr != nil {
				err = cerr
				break
			}
		}
	}
	rep := s.report(endCycle)
	if engErr != nil {
		// Budget exhaustion or stall: attach the post-mortem.
		rep.Hang = s.hangDump(engErr)
	}
	return rep, err
}

// Close unwinds any program goroutines still blocked (after an error or
// cycle-budget exhaustion).
func (s *System) Close() {
	for i := 0; i < s.launched; i++ {
		s.Cores[i].Abort()
	}
}

// Report is the complete result of one simulation run.
type Report struct {
	Cycles    uint64
	PerCore   []stats.TimeBreakdown
	Breakdown stats.TimeBreakdown
	Traffic   stats.Traffic

	BarrierEpisodes uint64
	BarrierPeriod   float64

	L1Hits, L1Misses uint64
	L2Hits, L2Misses uint64
	MemFetches       uint64
	MemWritebacks    uint64

	FlitHops       uint64
	GLToggles      uint64
	GLLines        int
	GLActiveCycles uint64
	Energy         energy.Estimate

	// Metrics is the merged snapshot of every component registry: barrier
	// episode latency histograms, coherence event counters, NoC latency
	// distributions, engine queue statistics. Observability only — none of
	// these feed Fingerprint.
	Metrics metrics.Snapshot
	// NoC summarizes per-link flit occupancy and peak queue depth.
	NoC noc.Stats
	// Hang carries the watchdog post-mortem when the run stalled or ran
	// out of cycle budget; nil on clean runs.
	Hang *HangDump
	// Episodes is the per-episode latency attribution table, filled when a
	// timeline was attached. Observability only — not fingerprinted.
	Episodes []EpisodeAttribution
	// Config echoes the resolved configuration the run used, so exported
	// reports and timelines are self-describing.
	Config config.Config
}

func (s *System) report(endCycle uint64) *Report {
	r := &Report{
		Cycles:  endCycle,
		Traffic: s.Prot.Traffic(),
		Config:  s.Cfg,
	}
	if s.tlc != nil {
		r.Episodes = s.tlc.episodes
	}
	for i := 0; i < s.launched; i++ {
		b := s.Cores[i].Breakdown()
		r.PerCore = append(r.PerCore, b)
		r.Breakdown = r.Breakdown.Plus(b)
	}
	for i := range s.Cores {
		h, m := s.Prot.L1Stats(i)
		r.L1Hits += h
		r.L1Misses += m
	}
	r.L2Hits, r.L2Misses = s.Prot.L2Stats()
	r.MemFetches, r.MemWritebacks = s.Prot.MemAccesses()

	for _, ports := range s.Prot.Mesh().LinkUtilization() {
		for _, f := range ports {
			r.FlitHops += f
		}
	}
	r.BarrierEpisodes = s.SWEpisodes
	if s.GL != nil {
		r.BarrierEpisodes += s.GL.Episodes()
		r.GLToggles = s.GL.Toggles()
		r.GLLines = s.GL.LineCount()
		r.GLActiveCycles = s.GL.ActiveCycles()
	}
	if r.BarrierEpisodes > 0 {
		r.BarrierPeriod = float64(r.Cycles) / float64(r.BarrierEpisodes)
	}
	r.Energy = energy.New(r.FlitHops, r.GLToggles)
	if s.GL != nil {
		// The network counts its own steps; bring the counter up to date.
		s.glSteps.Add(s.GL.Steps() - s.glSteps.Value())
	}
	r.Metrics = s.Metrics.Snapshot().
		Plus(s.Eng.Metrics().Snapshot()).
		Plus(s.Prot.Metrics().Snapshot()).
		Plus(s.Prot.Mesh().Metrics().Snapshot())
	r.NoC = s.Prot.Mesh().Stats()
	return r
}

// String renders a human-readable summary of the report.
func (r *Report) String() string {
	t := stats.Table{Header: []string{"metric", "value"}}
	t.AddRow("cycles", fmt.Sprintf("%d", r.Cycles))
	f := r.Breakdown.Fractions()
	for reg := stats.Region(0); reg < stats.NumRegions; reg++ {
		t.AddRow("time."+reg.String(), fmt.Sprintf("%d (%s)", r.Breakdown[reg], stats.Pct(f[reg])))
	}
	for c := stats.MsgClass(0); c < stats.NumMsgClasses; c++ {
		t.AddRow("traffic."+c.String(), fmt.Sprintf("%d msgs / %d flits", r.Traffic.Messages[c], r.Traffic.Flits[c]))
	}
	t.AddRow("barrier.episodes", fmt.Sprintf("%d", r.BarrierEpisodes))
	t.AddRow("barrier.period", fmt.Sprintf("%.0f", r.BarrierPeriod))
	if len(r.Episodes) > 0 {
		var wait, gather, rel, retry, fb uint64
		for _, e := range r.Episodes {
			wait += e.ArriveWait
			gather += e.Gather
			rel += e.Release
			retry += e.Retry
			fb += e.Fallback
		}
		t.AddRow("barrier.attr.episodes", fmt.Sprintf("%d", len(r.Episodes)))
		t.AddRow("barrier.attr.arrive-wait", fmt.Sprintf("%d", wait))
		t.AddRow("barrier.attr.gather", fmt.Sprintf("%d", gather))
		t.AddRow("barrier.attr.release", fmt.Sprintf("%d", rel))
		t.AddRow("barrier.attr.retry", fmt.Sprintf("%d", retry))
		t.AddRow("barrier.attr.fallback", fmt.Sprintf("%d", fb))
	}
	t.AddRow("l1.hits/misses", fmt.Sprintf("%d/%d", r.L1Hits, r.L1Misses))
	t.AddRow("l2.hits/misses", fmt.Sprintf("%d/%d", r.L2Hits, r.L2Misses))
	t.AddRow("mem.fetch/writeback", fmt.Sprintf("%d/%d", r.MemFetches, r.MemWritebacks))
	t.AddRow("noc.flit-hops", fmt.Sprintf("%d", r.FlitHops))
	t.AddRow("gl.lines", fmt.Sprintf("%d", r.GLLines))
	t.AddRow("gl.toggles", fmt.Sprintf("%d", r.GLToggles))
	t.AddRow("energy.noc-pJ", fmt.Sprintf("%.0f", r.Energy.NoCPJ))
	t.AddRow("energy.gl-pJ", fmt.Sprintf("%.1f", r.Energy.GLinePJ))
	for _, name := range r.Metrics.SortedHistogramNames() {
		h := r.Metrics.Histograms[name]
		if h.Count == 0 {
			continue
		}
		t.AddRow(name, fmt.Sprintf("n=%d p50=%d p95=%d p99=%d max=%d", h.Count, h.P50, h.P95, h.P99, h.Max))
	}
	for _, name := range r.Metrics.SortedCounterNames() {
		if v := r.Metrics.Counters[name]; v > 0 {
			t.AddRow(name, fmt.Sprintf("%d", v))
		}
	}
	t.AddRow("fingerprint", r.Fingerprint())
	return t.String()
}

package chaos

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
)

// Oracle names, used in Violation.Oracle, reproducer files and the
// -oracles CLI flag.
const (
	OracleSafety       = "safety"
	OracleLiveness     = "liveness"
	OracleConservation = "conservation"
)

// Violation kinds, grouped by oracle.
const (
	// safety: release delivered to a core before every participant arrived.
	KindPrematureRelease = "premature-release"
	// safety: a core released twice within one episode.
	KindDoubleRelease = "double-release"
	// safety: a core released without an arrival on record at all.
	KindPhantomRelease = "phantom-release"
	// safety: a core arrived twice without an intervening release — its
	// first arrival was lost by the network.
	KindLostArrival = "lost-arrival"
	// liveness: the run wedged (engine stall/deadlock, cycle budget, or a
	// protocol panic) before every program finished.
	KindNoProgress = "no-progress"
	// liveness: an episode outlived the fallback-path bound after its last
	// arrival.
	KindEpisodeOverrun = "episode-overrun"
	// conservation: metrics counters disagree with observed protocol events.
	KindMetricsMismatch = "metrics-mismatch"
	// conservation: recovery activity recorded with zero injected faults.
	KindRecoveryWithoutFault = "recovery-without-fault"
	// conservation: the run finished cleanly but the episode count does not
	// match the workload's barrier count.
	KindLostEpisodes = "lost-episodes"
)

// Violation is one oracle verdict: which invariant broke, how, and where.
type Violation struct {
	Oracle string `json:"oracle"`
	Kind   string `json:"kind"`
	Cycle  uint64 `json:"cycle,omitempty"`
	Detail string `json:"detail"`
}

// String renders "oracle/kind @cycle: detail".
func (v Violation) String() string {
	if v.Cycle > 0 {
		return fmt.Sprintf("%s/%s @%d: %s", v.Oracle, v.Kind, v.Cycle, v.Detail)
	}
	return fmt.Sprintf("%s/%s: %s", v.Oracle, v.Kind, v.Detail)
}

// Key returns the "oracle/kind" pair that identifies a failure class —
// what ddmin preserves while shrinking, and what corpus replays pin.
func (v Violation) Key() string { return v.Oracle + "/" + v.Kind }

// Violations is a run's oracle trips in detection order. Both chaos
// layers, the protocol one here and the host one in internal/hostchaos,
// record their verdicts in it.
type Violations []Violation

// Tripped returns the first violation, or nil when every oracle held.
func (vs Violations) Tripped() *Violation {
	if len(vs) == 0 {
		return nil
	}
	return &vs[0]
}

// Matches reports whether any violation has the target's oracle and kind —
// the "same failure" test minimization reduces against and corpus replays
// pin.
func (vs Violations) Matches(target Violation) bool {
	for _, v := range vs {
		if v.Oracle == target.Oracle && v.Kind == target.Kind {
			return true
		}
	}
	return false
}

// Pinned returns nil when vs matches target, and otherwise the drift error
// a corpus replay reports: the pinned verdict and what tripped instead.
func (vs Violations) Pinned(target Violation) error {
	if vs.Matches(target) {
		return nil
	}
	got := "no violation at all"
	if v := vs.Tripped(); v != nil {
		got = v.String()
	}
	return fmt.Errorf("plan no longer trips %s (got %s)", target.Key(), got)
}

// ParseVerdict parses an "oracle/kind" key back into a target Violation.
// The oracle must be one of oracles, the names the caller's layer checks.
func ParseVerdict(s string, oracles ...string) (Violation, error) {
	oracle, kind, ok := strings.Cut(strings.TrimSpace(s), "/")
	if !ok || oracle == "" || kind == "" {
		return Violation{}, fmt.Errorf("verdict %q is not oracle/kind", s)
	}
	if !slices.Contains(oracles, oracle) {
		return Violation{}, fmt.Errorf("unknown oracle %q in verdict %q", oracle, s)
	}
	return Violation{Oracle: oracle, Kind: kind}, nil
}

// OracleSet selects which invariants a run checks.
type OracleSet struct {
	Safety       bool `json:"safety"`
	Liveness     bool `json:"liveness"`
	Conservation bool `json:"conservation"`
}

// AllOracles arms every invariant check.
func AllOracles() OracleSet {
	return OracleSet{Safety: true, Liveness: true, Conservation: true}
}

// ParseOracles parses a comma-separated oracle list ("safety,liveness"),
// or "all".
func ParseOracles(s string) (OracleSet, error) {
	if strings.TrimSpace(s) == "all" {
		return AllOracles(), nil
	}
	var set OracleSet
	for _, name := range strings.Split(s, ",") {
		switch strings.TrimSpace(name) {
		case OracleSafety:
			set.Safety = true
		case OracleLiveness:
			set.Liveness = true
		case OracleConservation:
			set.Conservation = true
		case "":
		default:
			return OracleSet{}, fmt.Errorf("chaos: unknown oracle %q (want safety, liveness, conservation or all)", name)
		}
	}
	if !set.Safety && !set.Liveness && !set.Conservation {
		return OracleSet{}, fmt.Errorf("chaos: empty oracle selection %q", s)
	}
	return set, nil
}

// String renders the set in ParseOracles syntax.
func (s OracleSet) String() string {
	var names []string
	if s.Safety {
		names = append(names, OracleSafety)
	}
	if s.Liveness {
		names = append(names, OracleLiveness)
	}
	if s.Conservation {
		names = append(names, OracleConservation)
	}
	return strings.Join(names, ",")
}

// maxViolations caps recorded violations per run: after the first break the
// protocol's state is garbage and follow-on violations are noise.
const maxViolations = 16

// probe is the online oracle state machine. It implements both
// sim.BarrierObserver (core-visible arrivals/releases on the metering path)
// and core.GuardObserver (the recovering guard's internal suppressions,
// retries, fallbacks and episode closures), shadowing every barrier context
// independently. All methods run on the simulation's cycle path, so they
// only mutate probe fields — no I/O, no synchronization.
type probe struct {
	expected int // participants per episode
	bound    uint64
	oracles  OracleSet

	ctxs       []*probeCtx
	violations []Violation

	// Guard-event tallies, reconciled against metrics by the conservation
	// oracle.
	guardEpisodes uint64
	suppressed    uint64
	retries       uint64
	fallbacks     uint64
	// Episodes the probe itself saw fully close at the metering layer.
	closed uint64
}

// probeCtx shadows one barrier context's current episode.
type probeCtx struct {
	arrived  []bool
	released []bool
	nArrived int
	nRel     int
	lastAt   uint64 // cycle of the final expected arrival
	// next holds cores that re-arrived for episode N+1 while N was still
	// draining releases (legal: the guard buffers them).
	next []int
}

func newProbe(expected int, bound uint64, oracles OracleSet) *probe {
	return &probe{expected: expected, bound: bound, oracles: oracles}
}

func (p *probe) ctx(id int) *probeCtx {
	for len(p.ctxs) <= id {
		p.ctxs = append(p.ctxs, &probeCtx{
			arrived:  make([]bool, p.expected),
			released: make([]bool, p.expected),
		})
	}
	return p.ctxs[id]
}

func (p *probe) report(v Violation) {
	if len(p.violations) < maxViolations {
		p.violations = append(p.violations, v)
	}
}

// BarrierArrive implements sim.BarrierObserver.
func (p *probe) BarrierArrive(ctx, core int, cycle uint64) {
	c := p.ctx(ctx)
	if core < 0 || core >= p.expected {
		return
	}
	switch {
	case c.arrived[core] && c.released[core]:
		// Early arrival for the next episode while this one drains.
		c.next = append(c.next, core)
	case c.arrived[core]:
		if p.oracles.Safety {
			p.report(Violation{
				Oracle: OracleSafety, Kind: KindLostArrival, Cycle: cycle,
				Detail: fmt.Sprintf("core %d re-arrived on ctx %d with %d/%d arrivals and no release: its first arrival was dropped", core, ctx, c.nArrived, p.expected),
			})
		}
	default:
		c.arrived[core] = true
		c.nArrived++
		if c.nArrived == p.expected {
			c.lastAt = cycle
		}
	}
}

// BarrierRelease implements sim.BarrierObserver. It runs before the release
// reaches the core, so a violation is on record even when the core panics
// on an unexpected release one call later.
func (p *probe) BarrierRelease(ctx, core int, cycle uint64) {
	c := p.ctx(ctx)
	if core < 0 || core >= p.expected {
		return
	}
	if p.oracles.Safety {
		switch {
		case !c.arrived[core]:
			p.report(Violation{
				Oracle: OracleSafety, Kind: KindPhantomRelease, Cycle: cycle,
				Detail: fmt.Sprintf("core %d released on ctx %d without an arrival on record (%d/%d arrived)", core, ctx, c.nArrived, p.expected),
			})
		case c.released[core]:
			p.report(Violation{
				Oracle: OracleSafety, Kind: KindDoubleRelease, Cycle: cycle,
				Detail: fmt.Sprintf("core %d released twice on ctx %d within one episode", core, ctx),
			})
		case c.nArrived < p.expected:
			p.report(Violation{
				Oracle: OracleSafety, Kind: KindPrematureRelease, Cycle: cycle,
				Detail: fmt.Sprintf("core %d released on ctx %d with only %d/%d arrivals", core, ctx, c.nArrived, p.expected),
			})
		}
	}
	if c.arrived[core] && !c.released[core] {
		c.released[core] = true
		c.nRel++
		if c.nRel == p.expected {
			p.closeEpisode(c, cycle)
		}
	}
}

// closeEpisode finishes the shadow episode: check the liveness bound, reset
// the per-core state, and replay buffered early arrivals into the new
// episode.
func (p *probe) closeEpisode(c *probeCtx, cycle uint64) {
	p.closed++
	if p.oracles.Liveness && c.lastAt > 0 && cycle-c.lastAt > p.bound {
		p.report(Violation{
			Oracle: OracleLiveness, Kind: KindEpisodeOverrun, Cycle: cycle,
			Detail: fmt.Sprintf("episode completed %d cycles after its last arrival (bound %d)", cycle-c.lastAt, p.bound),
		})
	}
	for i := range c.arrived {
		c.arrived[i] = false
		c.released[i] = false
	}
	c.nArrived, c.nRel, c.lastAt = 0, 0, 0
	early := c.next
	c.next = nil
	sort.Ints(early)
	for _, core := range early {
		c.arrived[core] = true
		c.nArrived++
	}
	if c.nArrived == p.expected {
		c.lastAt = cycle
	}
}

// GuardSuppressed implements core.GuardObserver.
func (p *probe) GuardSuppressed(ctx, core int, cycle uint64) { p.suppressed++ }

// GuardRetry implements core.GuardObserver.
func (p *probe) GuardRetry(ctx, attempt int, cycle uint64) { p.retries++ }

// GuardFallback implements core.GuardObserver.
func (p *probe) GuardFallback(ctx int, cycle uint64, sticky bool) { p.fallbacks++ }

// GuardEpisode implements core.GuardObserver.
func (p *probe) GuardEpisode(ctx int, opened, closed uint64, retries int, viaFallback bool) {
	p.guardEpisodes++
}

// finish runs the post-mortem oracles once the simulation has returned:
// liveness on the run-level error, conservation on the metrics snapshot.
func (p *probe) finish(rep *sim.Report, runErr error, wantEpisodes uint64) {
	endCycle := uint64(0)
	if rep != nil {
		endCycle = rep.Cycles
	}
	if p.oracles.Liveness && runErr != nil {
		p.report(Violation{
			Oracle: OracleLiveness, Kind: KindNoProgress, Cycle: endCycle,
			Detail: fmt.Sprintf("run failed before completion: %s", firstLine(runErr.Error())),
		})
	}
	if !p.oracles.Conservation || rep == nil {
		return
	}
	counters := rep.Metrics.Counters
	injected := counters[fault.MetricInjected]
	check := func(name string, metric, observed uint64) {
		if metric != observed {
			p.report(Violation{
				Oracle: OracleConservation, Kind: KindMetricsMismatch, Cycle: endCycle,
				Detail: fmt.Sprintf("%s counter=%d but oracle observed %d", name, metric, observed),
			})
		}
	}
	check(core.MetricGLRetries, counters[core.MetricGLRetries], p.retries)
	check(core.MetricGLFallbacks, counters[core.MetricGLFallbacks], p.fallbacks)
	check(core.MetricGLSpuriousReleases, counters[core.MetricGLSpuriousReleases], p.suppressed)
	if injected == 0 && p.retries+p.fallbacks+p.suppressed > 0 {
		p.report(Violation{
			Oracle: OracleConservation, Kind: KindRecoveryWithoutFault, Cycle: endCycle,
			Detail: fmt.Sprintf("guard recorded %d retries, %d fallbacks, %d suppressions with zero injected faults", p.retries, p.fallbacks, p.suppressed),
		})
	}
	// Episode accounting only means something for a clean, safe run: after
	// a wedge or a safety break the counts legitimately disagree.
	if runErr == nil && !p.sawOracle(OracleSafety) {
		if rep.BarrierEpisodes != wantEpisodes {
			p.report(Violation{
				Oracle: OracleConservation, Kind: KindLostEpisodes, Cycle: endCycle,
				Detail: fmt.Sprintf("run completed with %d barrier episodes, workload issued %d", rep.BarrierEpisodes, wantEpisodes),
			})
		}
		if p.guardEpisodes > 0 && p.closed != p.guardEpisodes {
			p.report(Violation{
				Oracle: OracleConservation, Kind: KindLostEpisodes, Cycle: endCycle,
				Detail: fmt.Sprintf("guard closed %d episodes but the metering layer saw %d complete", p.guardEpisodes, p.closed),
			})
		}
	}
}

// sawOracle reports whether any recorded violation belongs to the oracle.
func (p *probe) sawOracle(oracle string) bool {
	for _, v := range p.violations {
		if v.Oracle == oracle {
			return true
		}
	}
	return false
}

// firstLine trims an error message to its first line (panic messages carry
// whole stack traces).
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

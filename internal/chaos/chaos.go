// Package chaos searches the fault space for plans that break the G-line
// barrier protocol, and reduces every find to a minimal, replayable
// reproducer.
//
// The paper's 4-cycle protocol (Figure 4 FSMs) has crisp invariants that
// make machine-checkable oracles:
//
//   - safety: no core is released from episode N before every participant
//     arrived at N, and no core is released twice in one episode;
//   - liveness: once every participant has arrived, the episode completes
//     within a bound derived from the recovery fallback path;
//   - conservation: the recovery metrics (gl.retries, gl.fallbacks,
//     gl.spurious_releases, fault.injected) must reconcile with the
//     protocol events the oracles observed.
//
// A campaign (see Campaign) generates randomized fault plans over the
// fault.Plan grammar from one seed, runs each through internal/sim with
// the oracles attached, and delta-debugs any failing plan (ddmin over
// fault sites, then over rates and windows) down to a minimal reproducer
// emitted in fault.ParsePlan syntax. Minimized reproducers live in a
// testdata corpus that `go test -short` replays (see corpus.go).
//
// Every run is deterministic: same plan, same verdict, regardless of sweep
// parallelism. The only randomness is the campaign generator's seeded
// source.
package chaos

import (
	"fmt"
	"runtime/debug"

	"repro/internal/barrier"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// RunConfig shapes one oracle-checked chaos run. The zero value selects
// the campaign defaults: a 16-core flat 4x4 mesh running the synthetic
// barrier loop, every oracle armed.
type RunConfig struct {
	// Cores is the CMP size (0 = 16, the largest flat mesh the chaos
	// grid uses; protocol bugs do not need a big chip to show).
	Cores int
	// Iters is the synthetic benchmark's iteration count (0 = 8, i.e.
	// 32 barrier episodes — enough for back-to-back episode faults).
	Iters int
	// CycleBudget bounds the run (0 = 4M cycles).
	CycleBudget uint64
	// StallLimit arms the engine watchdog (0 = 100k cycles): a wedged
	// unguarded barrier is cut short instead of burning the budget.
	StallLimit uint64
	// Oracles selects the invariant checks; the zero set arms all.
	Oracles OracleSet
	// TraceCapacity, when positive, attaches a span timeline of that many
	// events to the run; the Outcome carries it for artifact export.
	// Observation only — verdicts are identical with or without it.
	TraceCapacity int
}

// Chaos-run defaults; see RunConfig.
const (
	DefaultCores       = 16
	DefaultIters       = 8
	DefaultCycleBudget = 4_000_000
	DefaultStallLimit  = 100_000
)

// withDefaults resolves zero fields.
func (c RunConfig) withDefaults() RunConfig {
	if c.Cores == 0 {
		c.Cores = DefaultCores
	}
	if c.Iters == 0 {
		c.Iters = DefaultIters
	}
	if c.CycleBudget == 0 {
		c.CycleBudget = DefaultCycleBudget
	}
	if c.StallLimit == 0 {
		c.StallLimit = DefaultStallLimit
	}
	if !c.Oracles.Safety && !c.Oracles.Liveness && !c.Oracles.Conservation {
		c.Oracles = AllOracles()
	}
	return c
}

// barriers returns the run's expected episode count.
func (c RunConfig) barriers() uint64 {
	return (&workload.Synthetic{Iters: c.Iters}).Barriers(c.Cores)
}

// Outcome is one chaos run's result: the raw report (when the simulation
// got far enough to produce one), the run-level failure if any, and every
// oracle violation in detection order.
type Outcome struct {
	Report     *sim.Report `json:"report,omitempty"`
	RunErr     string      `json:"run_err,omitempty"`
	Violations `json:"violations,omitempty"`
	// Timeline is the run's span timeline when RunConfig.TraceCapacity
	// asked for one; export it with Timeline.WriteChrome. Not serialized —
	// the Chrome trace file is the artifact format.
	Timeline *trace.Timeline `json:"-"`
}

// RunPlan executes the synthetic barrier loop under the given fault plan
// with the configured oracles attached and returns the verdict. The run is
// a pure function of (cfg, plan): chaos replays are bit-deterministic. A
// panic inside the simulation (e.g. the unguarded protocol releasing a
// non-waiting core) is captured into RunErr after the online oracles have
// seen the violating event. A config that cannot build or launch a system
// gets no verdict: its error lands in RunErr with no violations.
func RunPlan(cfg RunConfig, plan *fault.Plan) Outcome {
	out, err := runPlan(cfg, plan)
	if err != nil {
		out.RunErr = err.Error()
	}
	return out
}

// runPlan is RunPlan with a failure to build or launch the system returned
// as a machinery error instead of recorded in the outcome: Replay and
// Campaign report it as such, never as a verdict.
func runPlan(cfg RunConfig, plan *fault.Plan) (Outcome, error) {
	cfg = cfg.withDefaults()
	sysCfg := config.Default(cfg.Cores)
	sysCfg.Faults = plan
	p := newProbe(cfg.Cores, livenessBound(plan, cfg.CycleBudget), cfg.Oracles)
	rep, tl, runErr, setupErr := runProtected(sysCfg, cfg, p)
	out := Outcome{Report: rep, Timeline: tl}
	if setupErr != nil {
		return out, setupErr
	}
	if runErr != nil {
		out.RunErr = runErr.Error()
	}
	p.finish(rep, runErr, cfg.barriers())
	out.Violations = p.violations
	return out, nil
}

// runProtected builds and drives the system. setupErr reports a system
// that could not be built or launched; runErr a run that failed, with a
// panic converted into one so one crashing plan degrades one campaign
// slot, not the process.
func runProtected(sysCfg config.Config, cfg RunConfig, p *probe) (rep *sim.Report, tl *trace.Timeline, runErr, setupErr error) {
	defer func() {
		if r := recover(); r != nil {
			runErr = fmt.Errorf("chaos: run panicked: %v\n%s", r, debug.Stack())
		}
	}()
	sys, err := sim.New(sysCfg)
	if err != nil {
		return nil, nil, nil, err
	}
	sys.Eng.StallLimit = cfg.StallLimit
	if cfg.TraceCapacity > 0 {
		tl = sys.AttachTimeline(cfg.TraceCapacity)
	}
	sys.ObserveBarrier(p)
	b, err := sys.NewBarrier(barrier.KindGL, cfg.Cores)
	if err != nil {
		return nil, tl, nil, err
	}
	w := &workload.Synthetic{Iters: cfg.Iters}
	progs, err := w.Programs(sys, b, cfg.Cores)
	if err != nil {
		return nil, tl, nil, err
	}
	if err := sys.Launch(progs); err != nil {
		return nil, tl, nil, err
	}
	rep, runErr = sys.Run(cfg.CycleBudget)
	sys.Close()
	return rep, tl, runErr, nil
}

// livenessBound derives the per-episode completion bound from the recovery
// fallback path: every hardware retry's (exponentially backed-off) timeout
// may elapse before the guard finishes the episode in software, plus the
// fallback release penalty and scheduling slack. Unguarded plans get the
// same bound — the bound the protocol is supposed to satisfy — though a
// wedged unguarded run usually trips the engine watchdog first.
func livenessBound(plan *fault.Plan, budget uint64) uint64 {
	rec := plan.Recovery.WithDefaults()
	bound := rec.FallbackPenalty + 4096
	t := rec.Timeout
	for i := 0; i <= rec.MaxRetries; i++ {
		if bound > budget-t || t > budget {
			return budget
		}
		bound += t
		t <<= 1
	}
	if bound > budget {
		bound = budget
	}
	return bound
}

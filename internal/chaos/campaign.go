package chaos

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// CampaignConfig shapes one chaos campaign: how many plans to explore,
// from which seed, under which oracles, and how hard to minimize finds.
type CampaignConfig struct {
	// Seed drives the plan generator; same seed, same campaign.
	Seed uint64
	// Budget is the number of generated plans to run (0 = 64).
	Budget int
	// Run configures the oracle-checked runs (zero value = defaults).
	Run RunConfig
	// Sweep configures the worker pool executing the exploration phase
	// (Jobs, Timeout, FailFast pass through; ArtifactDir applies to the
	// raw exploration reports).
	Sweep sweep.Options
	// ShrinkRuns bounds minimization candidates per finding (0 = 200).
	ShrinkRuns int
	// MaxFindings stops minimizing after this many distinct finds (0 = 8):
	// a hundred trips of the same wedge teach nothing new.
	MaxFindings int
}

func (c CampaignConfig) withDefaults() CampaignConfig {
	if c.Budget == 0 {
		c.Budget = 64
	}
	if c.ShrinkRuns == 0 {
		c.ShrinkRuns = 200
	}
	if c.MaxFindings == 0 {
		c.MaxFindings = 8
	}
	c.Run = c.Run.withDefaults()
	return c
}

// Finding is one oracle trip, minimized: the plan the generator produced,
// the verdict, and the ddmin-reduced reproducer in fault.ParsePlan syntax.
type Finding struct {
	// Index is the plan's position in the campaign's generation order.
	Index int `json:"index"`
	// Plan is the original failing plan (ParsePlan syntax).
	Plan string `json:"plan"`
	// Verdict is the first violation of the original run.
	Verdict Violation `json:"verdict"`
	// Violations is the original run's full violation list.
	Violations []Violation `json:"violations,omitempty"`
	// Minimized is the ddmin-reduced reproducer (ParsePlan syntax); it
	// trips the same oracle/kind as Verdict, deterministically.
	Minimized string `json:"minimized"`
	// MinimizedSites counts the distinct fault sites the reproducer kept.
	MinimizedSites int `json:"minimized_sites"`
	// Shrink summarizes the minimization effort.
	Shrink ShrinkStats `json:"shrink"`
	// Report is the minimized reproducer's replay report.
	Report *sim.Report `json:"report,omitempty"`
}

// CampaignReport is the JSON document a campaign emits.
type CampaignReport struct {
	Seed    uint64 `json:"seed"`
	Budget  int    `json:"budget"`
	Oracles string `json:"oracles"`
	Cores   int    `json:"cores"`
	Iters   int    `json:"iters"`
	Runs    int    `json:"runs"`
	Clean   int    `json:"clean"`
	Tripped int    `json:"tripped"`
	// Errors counts machinery failures — sweep timeouts, systems that
	// could not be built or launched — that produced no verdict (not
	// oracle trips, which are the point).
	Errors   int       `json:"errors"`
	Findings []Finding `json:"findings,omitempty"`
}

// Campaign explores Budget generated fault plans on the sweep worker pool,
// then sequentially (and deterministically) delta-debugs up to MaxFindings
// oracle trips into minimal reproducers. The exploration order, the plans
// and every verdict are pure functions of the seed; only wall-clock
// effects (Sweep.Timeout expiring) can perturb a campaign, and those are
// reported as machinery errors, never as verdicts.
func Campaign(cfg CampaignConfig) (*CampaignReport, error) {
	cfg = cfg.withDefaults()
	gen := newGenerator(cfg.Seed, cfg.Run)
	plans := make([]*fault.Plan, cfg.Budget)
	for i := range plans {
		plans[i] = gen.plan()
	}

	// Each cell writes only its own slot, and sweep.Run returns once every
	// cell has returned.
	outcomes := make([]Outcome, cfg.Budget)
	specs := make([]sweep.Spec, cfg.Budget)
	for i := range specs {
		specs[i] = sweep.Spec{
			Label: fmt.Sprintf("chaos-%04d", i),
			Run: func(ctx context.Context) (*sim.Report, error) {
				out, err := runPlan(ctx, cfg.Run, plans[i])
				outcomes[i] = out
				return out.Report, err
			},
		}
	}
	results := sweep.Run(cfg.Sweep, specs)

	rep := &CampaignReport{
		Seed:    cfg.Seed,
		Budget:  cfg.Budget,
		Oracles: cfg.Run.Oracles.String(),
		Cores:   cfg.Run.Cores,
		Iters:   cfg.Run.Iters,
	}
	var errs []error
	for i, out := range outcomes {
		if results[i].Err != nil {
			rep.Errors++
			errs = append(errs, results[i].Err)
			continue
		}
		rep.Runs++
		v := out.Tripped()
		if v == nil {
			rep.Clean++
			continue
		}
		rep.Tripped++
		if len(rep.Findings) >= cfg.MaxFindings {
			continue
		}
		min, stats := Minimize(cfg.Run, plans[i], *v, cfg.ShrinkRuns)
		replay := RunPlan(cfg.Run, min)
		rep.Findings = append(rep.Findings, Finding{
			Index:          i,
			Plan:           plans[i].String(),
			Verdict:        *v,
			Violations:     out.Violations,
			Minimized:      min.String(),
			MinimizedSites: countSites(min),
			Shrink:         stats,
			Report:         replay.Report,
		})
	}
	if len(errs) > 0 {
		return rep, fmt.Errorf("chaos: %d of %d runs failed (first: %w)", len(errs), cfg.Budget, errs[0])
	}
	return rep, nil
}

// countSites counts the distinct fault sites a plan touches.
func countSites(p *fault.Plan) int {
	var seen [fault.NumSites]bool
	for s := fault.GLDrop; s < fault.NumSites; s++ {
		if p.Rates[s] > 0 {
			seen[s] = true
		}
	}
	for _, e := range p.Events {
		seen[e.Site] = true
	}
	n := 0
	for s := fault.GLDrop; s < fault.NumSites; s++ {
		if seen[s] {
			n++
		}
	}
	return n
}

// generator produces randomized fault plans over the fault.Plan grammar
// from one seeded source. The weights steer the budget toward the sites
// that stress the barrier protocol itself (G-line drops, phantom
// assertions, S-CSMA miscounts, stuck lines); NoC and watch sites get a
// light tail — the synthetic barrier loop never exercises them, so they
// are noise atoms the minimizer must learn to strip.
type generator struct {
	rng     *rand.Rand
	lines   int    // G-line ids per barrier context, for targeted events
	horizon uint64 // cycle range event windows are drawn from
	sites   []fault.Site
}

func newGenerator(seed uint64, run RunConfig) *generator {
	weights := map[fault.Site]int{
		fault.GLDrop:        5,
		fault.GLSpurious:    4,
		fault.SCSMAMiscount: 3,
		fault.GLStuckLow:    2,
		fault.GLStuckHigh:   2,
		fault.NoCCorrupt:    1,
		fault.NoCLinkDown:   1,
		fault.WatchDrop:     1,
		fault.WatchDelay:    1,
	}
	// Burst windows are drawn from the stretch of cycles the run will
	// actually execute: a fault-free episode is ~16 cycles, and faulty
	// episodes stretch, so ~32 cycles per expected barrier keeps most
	// windows overlapping live protocol activity instead of landing after
	// the programs finished.
	g := &generator{
		rng:     rand.New(rand.NewSource(int64(seed))),
		lines:   config.Default(run.Cores).GLLinesPerBarrier(),
		horizon: 32 * run.barriers(),
	}
	// Expand the weight table into a draw pool, in site order (map
	// iteration must not shape the sequence).
	for s := fault.GLDrop; s < fault.NumSites; s++ {
		for i := 0; i < weights[s]; i++ {
			g.sites = append(g.sites, s)
		}
	}
	return g
}

// plan draws one randomized fault plan: 1–3 distinct sites, each either a
// uniform rate (log-uniform in [1e-4, 1e-1]) or a burst window, over a
// recovery config tightened so guard escalation happens within the chaos
// run's small cycle budget. Half the plans run unguarded — that is where
// the protocol's raw failure modes live.
func (g *generator) plan() *fault.Plan {
	p := &fault.Plan{
		Seed: 1 + uint64(g.rng.Intn(1_000_000)),
		Recovery: fault.Recovery{
			Timeout:         2048,
			MaxRetries:      2,
			FallbackPenalty: 256,
			StickyAfter:     4,
		},
	}
	if g.rng.Intn(2) == 0 {
		p.Recovery.Disabled = true
	}
	n := 1 + g.rng.Intn(3)
	var used [fault.NumSites]bool
	for len(atomsOf(p)) < n {
		s := g.sites[g.rng.Intn(len(g.sites))]
		if used[s] {
			continue
		}
		used[s] = true
		burst := s.EventOnly() || g.rng.Intn(2) == 0
		if !burst {
			// Log-uniform in [1e-3, 1e-1]: chaos runs are short, so rates
			// below ~1e-3 rarely get an opportunity to fire at all.
			p.Rates[s] = math.Pow(10, -(1 + 2*g.rng.Float64()))
			continue
		}
		from := uint64(g.rng.Intn(int(g.horizon)))
		width := uint64(16 + g.rng.Intn(int(g.horizon/4)))
		e := fault.Event{Site: s, From: from, Until: from + width, Loc: -1}
		if (s == fault.GLDrop || s == fault.GLSpurious || s == fault.GLStuckLow || s == fault.GLStuckHigh) && g.rng.Intn(2) == 0 {
			e.Loc = int64(g.rng.Intn(g.lines))
		}
		p.Events = append(p.Events, e)
	}
	return p
}

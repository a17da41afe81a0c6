package hostchaos

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/chaos"
	"repro/internal/serve"
	"repro/internal/serve/hostfault"
	"repro/internal/sim"
)

// CampaignConfig shapes one host-chaos campaign.
type CampaignConfig struct {
	// Seed drives the plan generator; same seed, same campaign.
	Seed uint64
	// Budget is the number of generated plans to run (0 = 12).
	Budget int
	// Run configures every oracle-checked server run.
	Run RunConfig
	// ShrinkRuns bounds minimization candidates per finding (0 = 24).
	ShrinkRuns int
	// MaxFindings stops minimizing after this many distinct finds (0 = 4).
	MaxFindings int
}

func (c CampaignConfig) withDefaults() CampaignConfig {
	if c.Budget == 0 {
		c.Budget = 12
	}
	if c.ShrinkRuns == 0 {
		c.ShrinkRuns = 24
	}
	if c.MaxFindings == 0 {
		c.MaxFindings = 4
	}
	c.Run = c.Run.withDefaults()
	return c
}

// Finding is one oracle trip, minimized to a reproducer plan.
type Finding struct {
	// Index is the plan's position in the generation order.
	Index int `json:"index"`
	// Plan is the original failing plan (ParsePlan syntax).
	Plan string `json:"plan"`
	// Verdict is the run's first violation.
	Verdict chaos.Violation `json:"verdict"`
	// Minimized is the shrunken reproducer (ParsePlan syntax).
	Minimized string `json:"minimized"`
	// Shrink summarizes the minimization effort.
	Shrink chaos.ShrinkStats `json:"shrink"`
}

// CampaignReport is the JSON document a campaign emits. Every field is a
// pure function of the seed and the run config — two campaigns with the
// same inputs render byte-identical reports.
type CampaignReport struct {
	Seed   uint64 `json:"seed"`
	Budget int    `json:"budget"`
	Runs   int    `json:"runs"`
	Clean  int    `json:"clean"`
	// Tripped counts runs with at least one oracle violation.
	Tripped int `json:"tripped"`
	// QuarantinedRuns counts (clean) runs in which at least one cell was
	// quarantined — expected self-healing behavior, not a violation.
	QuarantinedRuns int `json:"quarantined_runs"`
	// RetriedRuns counts runs that consumed at least one retry.
	RetriedRuns int       `json:"retried_runs"`
	Findings    []Finding `json:"findings,omitempty"`
}

// Campaign explores Budget seeded random host-fault plans sequentially
// against in-process servers, checks every run with the service oracles
// against one fault-free baseline, and shrinks up to MaxFindings trips to
// minimal reproducers. Machinery errors (a wedged server, transport
// failures) abort the campaign — they are bugs in the harness or the
// server, not verdicts.
func Campaign(cfg CampaignConfig) (*CampaignReport, error) {
	cfg = cfg.withDefaults()
	baseline, err := Baseline(cfg.Run)
	if err != nil {
		return nil, err
	}
	gen := newGenerator(cfg.Seed)
	rep := &CampaignReport{Seed: cfg.Seed, Budget: cfg.Budget}
	for i := 0; i < cfg.Budget; i++ {
		plan := gen.plan()
		out, err := RunPlan(cfg.Run, plan)
		if err != nil {
			return rep, fmt.Errorf("hostchaos: plan %d (%s): %w", i, plan, err)
		}
		Check(cfg.Run, out, baseline)
		rep.Runs++
		if out.Counters[serve.MetricCellsQuarantined] > 0 {
			rep.QuarantinedRuns++
		}
		if out.Counters[serve.MetricCellRetries] > 0 {
			rep.RetriedRuns++
		}
		v := out.Tripped()
		if v == nil {
			rep.Clean++
			continue
		}
		rep.Tripped++
		if len(rep.Findings) >= cfg.MaxFindings {
			continue
		}
		min, stats := Minimize(plan, func(p *hostfault.Plan) bool {
			out, err := RunPlan(cfg.Run, p)
			if err != nil {
				return false
			}
			Check(cfg.Run, out, baseline)
			return out.Matches(*v)
		}, cfg.ShrinkRuns)
		rep.Findings = append(rep.Findings, Finding{
			Index:     i,
			Plan:      plan.String(),
			Verdict:   *v,
			Minimized: min.String(),
			Shrink:    stats,
		})
	}
	return rep, nil
}

// generator produces randomized host-fault plans from one seeded source.
// Weights steer the budget toward the sites that stress the self-healing
// machinery (executor panics/failures); stalls and spill faults get a
// lighter tail — they degrade, they don't fail.
type generator struct {
	rng   *rand.Rand
	sites []hostfault.Site
}

func newGenerator(seed uint64) *generator {
	weights := map[hostfault.Site]int{
		hostfault.ExecPanic:       4,
		hostfault.ExecFail:        4,
		hostfault.ExecSlow:        1,
		hostfault.SpillWriteFail:  2,
		hostfault.SpillRenameFail: 1,
		hostfault.SpillReadFail:   2,
		hostfault.SpillCorrupt:    2,
		hostfault.QueueStall:      1,
	}
	g := &generator{rng: rand.New(rand.NewSource(int64(seed)))}
	// Expand the weight table into a draw pool, in site order (map
	// iteration must not shape the sequence).
	for s := hostfault.Site(0); s < hostfault.NumSites; s++ {
		for i := 0; i < weights[s]; i++ {
			g.sites = append(g.sites, s)
		}
	}
	return g
}

// plan draws one randomized plan: 1–3 distinct sites, each either a
// first-N burst (1–3 opportunities) or a rate. Opportunities per run are
// few — a handful of cells times a handful of attempts — so rates are
// drawn high (log-uniform in [0.1, 0.6]) to actually fire.
func (g *generator) plan() *hostfault.Plan {
	p := &hostfault.Plan{
		Seed:       1 + uint64(g.rng.Intn(1_000_000)),
		SlowMillis: 1,
	}
	n := 1 + g.rng.Intn(3)
	var used [hostfault.NumSites]bool
	for picked := 0; picked < n; {
		s := g.sites[g.rng.Intn(len(g.sites))]
		if used[s] {
			continue
		}
		used[s] = true
		picked++
		if g.rng.Intn(2) == 0 {
			p.First[s] = 1 + g.rng.Intn(3)
		} else {
			p.Rates[s] = 0.1 * math.Pow(6, g.rng.Float64())
		}
	}
	return p
}

// harness is one in-process server plus its loopback HTTP frontend.
type harness struct {
	srv *serve.Server
	ts  *httptest.Server
}

func newHarness(cfg RunConfig, cacheDir string, runner serve.CellRunner, plan *hostfault.Plan) harness {
	srv := serve.NewServer(serve.Options{
		ConcurrentJobs: cfg.ConcurrentJobs,
		CellWorkers:    cfg.CellWorkers,
		CacheDir:       cacheDir,
		CellAttempts:   cfg.CellAttempts,
		RetryBase:      time.Millisecond,
		RetryMax:       4 * time.Millisecond,
		// The budget must never bind in a campaign: a budget-exhausted
		// failure is neither a retry nor a quarantine, which would break
		// the conservation identity the oracles check.
		JobRetryBudget: 1 << 20,
		Runner:         runner,
		HostFaults:     plan,
	})
	return harness{srv: srv, ts: httptest.NewServer(srv.Handler())}
}

func (h harness) url() string { return h.ts.URL }

// stop closes the frontend and drains the server within d (0 cancels
// everything immediately — the abandoned-server path).
func (h harness) stop(d time.Duration) {
	h.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	h.srv.Drain(ctx)
}

// KillRestart is the journal-recovery check: a server with an attached
// journal is abandoned mid-run (its runner never completes a cell — the
// in-process stand-in for SIGKILL), and a second server over the same
// journal and cache directory must replay every job to completion with
// results byte-identical to the fault-free baseline, after which the
// journal must converge to empty.
func KillRestart(cfg RunConfig, baseline map[string][]byte) error {
	cfg = cfg.withDefaults()
	dir, err := os.MkdirTemp("", "hostchaos-recovery-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	journal := filepath.Join(dir, "journal.wal")
	cache := filepath.Join(dir, "cache")

	// Server A: every cell wedges until canceled, so the "crash" finds all
	// jobs durably journaled and none terminal.
	wedged := func(ctx context.Context, c serve.Cell) (*sim.Report, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	a := newHarness(cfg, cache, wedged, nil)
	if _, err := a.srv.AttachJournal(journal); err != nil {
		a.stop(0)
		return err
	}
	for _, spec := range cfg.Specs {
		if _, err := submit(a.url(), spec); err != nil {
			a.stop(0)
			return fmt.Errorf("hostchaos: recovery submit: %w", err)
		}
	}
	// "Crash": abandon A without letting anything finish. Its canceled
	// jobs append terminal records to an unlinked inode once B compacts
	// the journal; nothing observable survives, exactly like a kill.
	defer a.stop(0)

	// Server B: replays the journal with the real runner.
	b := newHarness(cfg, cache, nil, nil)
	defer b.stop(10 * time.Second)
	replayed, err := b.srv.AttachJournal(journal)
	if err != nil {
		return err
	}
	if replayed != len(cfg.Specs) {
		return fmt.Errorf("hostchaos: recovery replayed %d jobs, want %d", replayed, len(cfg.Specs))
	}
	for i := range cfg.Specs {
		id := fmt.Sprintf("j%d", i+1)
		st, err := waitTerminal(b.url(), id, cfg.PollSteps)
		if err != nil {
			return err
		}
		if st.State != serve.StateDone {
			return fmt.Errorf("hostchaos: recovered job %s ended %s (%s)", id, st.State, st.Error)
		}
		doc, err := getResult(b.url(), id)
		if err != nil {
			return err
		}
		for _, c := range doc.Cells {
			want, ok := baseline[c.InputFP]
			if !ok {
				return fmt.Errorf("hostchaos: recovered cell %s missing from baseline", c.InputFP)
			}
			if string(c.Report) != string(want) {
				return fmt.Errorf("hostchaos: recovered cell %s bytes differ from baseline", c.InputFP)
			}
		}
	}
	// Drain B (closing its journal), then a third attach must find nothing
	// pending: recovery converged.
	b.stop(10 * time.Second)
	c := newHarness(cfg, cache, nil, nil)
	defer c.stop(10 * time.Second)
	replayed, err = c.srv.AttachJournal(journal)
	if err != nil {
		return err
	}
	if replayed != 0 {
		return fmt.Errorf("hostchaos: journal did not converge: %d jobs replayed after a clean drain", replayed)
	}
	return nil
}

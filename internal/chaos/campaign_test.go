package chaos

import (
	"encoding/json"
	"testing"

	"repro/internal/fault"
	"repro/internal/sweep"
)

// smallCampaign keeps unit-test campaigns quick: a dozen plans, short
// runs, modest shrink budget.
func smallCampaign(seed uint64) CampaignConfig {
	return CampaignConfig{
		Seed:        seed,
		Budget:      12,
		Run:         fastRun(),
		Sweep:       sweep.Options{Jobs: 4},
		ShrinkRuns:  120,
		MaxFindings: 4,
	}
}

func TestGeneratorPlansAreValid(t *testing.T) {
	gen := newGenerator(99, RunConfig{}.withDefaults())
	for i := 0; i < 200; i++ {
		p := gen.plan()
		if err := p.Validate(); err != nil {
			t.Fatalf("plan %d invalid: %v (%s)", i, err, p.String())
		}
		if p.Empty() {
			t.Fatalf("plan %d is empty", i)
		}
		if n := len(atomsOf(p)); n < 1 || n > 3 {
			t.Fatalf("plan %d has %d atoms, want 1..3", i, n)
		}
		// Round-trip through the grammar: campaigns report reproducers as
		// strings, so every generated plan must survive the parser.
		if _, err := fault.ParsePlan(p.String()); err != nil {
			t.Fatalf("plan %d does not round-trip: %v (%s)", i, err, p.String())
		}
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	a := newGenerator(5, RunConfig{}.withDefaults())
	b := newGenerator(5, RunConfig{}.withDefaults())
	for i := 0; i < 50; i++ {
		if a.plan().String() != b.plan().String() {
			t.Fatalf("same seed diverged at plan %d", i)
		}
	}
	c := newGenerator(6, RunConfig{}.withDefaults())
	same := 0
	for i := 0; i < 50; i++ {
		if newGeneratorPlanString(a) == newGeneratorPlanString(c) {
			same++
		}
	}
	if same == 50 {
		t.Fatal("different seeds produced identical plan streams")
	}
}

func newGeneratorPlanString(g *generator) string { return g.plan().String() }

func TestCampaignFindsAndMinimizes(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign exploration is a long test")
	}
	rep, err := Campaign(smallCampaign(7))
	if err != nil {
		t.Fatalf("campaign machinery failed: %v", err)
	}
	if rep.Runs != rep.Budget {
		t.Fatalf("ran %d of %d plans", rep.Runs, rep.Budget)
	}
	if rep.Tripped == 0 {
		t.Fatalf("campaign found nothing: %+v", rep)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("tripped runs produced no findings")
	}
	for _, f := range rep.Findings {
		min, err := fault.ParsePlan(f.Minimized)
		if err != nil {
			t.Fatalf("finding %d reproducer does not parse: %v (%s)", f.Index, err, f.Minimized)
		}
		if !RunPlan(smallCampaign(7).Run, min).Matches(f.Verdict) {
			t.Fatalf("finding %d reproducer does not replay verdict %s: %s",
				f.Index, f.Verdict.Key(), f.Minimized)
		}
		if f.MinimizedSites > 3 {
			t.Fatalf("finding %d kept %d sites", f.Index, f.MinimizedSites)
		}
	}
}

func TestCampaignIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign exploration is a long test")
	}
	cfg := smallCampaign(21)
	cfg.Budget = 8
	cfg.MaxFindings = 2
	a, errA := Campaign(cfg)
	cfg.Sweep.Jobs = 1 // parallelism must not change verdicts
	b, errB := Campaign(cfg)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("machinery errors diverged: %v vs %v", errA, errB)
	}
	if a.Tripped != b.Tripped || a.Clean != b.Clean || len(a.Findings) != len(b.Findings) {
		t.Fatalf("campaign shape diverged: %+v vs %+v", a, b)
	}
	for i := range a.Findings {
		if a.Findings[i].Minimized != b.Findings[i].Minimized ||
			a.Findings[i].Verdict != b.Findings[i].Verdict {
			t.Fatalf("finding %d diverged:\n%+v\n%+v", i, a.Findings[i], b.Findings[i])
		}
	}
}

func TestCampaignReportMarshals(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign exploration is a long test")
	}
	cfg := smallCampaign(7)
	cfg.Budget = 4
	cfg.MaxFindings = 1
	rep, err := Campaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back CampaignReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Seed != rep.Seed || back.Budget != rep.Budget || len(back.Findings) != len(rep.Findings) {
		t.Fatalf("JSON round-trip lost fields: %+v", back)
	}
}

// A run that cannot build a system is a machinery error, counted under
// Errors, never a liveness/no-progress verdict.
func TestCampaignCountsSetupFailuresAsErrors(t *testing.T) {
	cfg := smallCampaign(3)
	cfg.Budget = 2
	cfg.Run.Cores = 100_000_000 // past the 64-core limit: sim.New refuses it
	rep, err := Campaign(cfg)
	if err == nil {
		t.Fatal("want the campaign to report its machinery errors")
	}
	if rep.Errors != 2 || rep.Runs != 0 || rep.Tripped != 0 {
		t.Fatalf("want 2 errors and no verdicts, got %+v", rep)
	}
}

package repro

import (
	"fmt"
	"testing"

	"repro/internal/chaos"
	"repro/internal/fault"
)

// chaosGoldenPath pins the fixed-seed protocol campaign of `make
// chaos-smoke`.
const chaosGoldenPath = "testdata/chaos-campaign.golden"

// TestChaosCorpusReplay replays every minimized reproducer under
// testdata/chaos-corpus and pins its recorded oracle verdict: each plan
// must still trip exactly the oracle/kind the chaos campaign minimized it
// to. The corpus is the regression net for the barrier protocol's failure
// modes — a verdict drift here means recovery or protocol semantics
// changed. Replays are deterministic and cheap, so this runs in -short.
func TestChaosCorpusReplay(t *testing.T) {
	entries, err := chaos.LoadCorpus("testdata/chaos-corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2 {
		t.Fatalf("corpus holds %d reproducer(s), want at least 2", len(entries))
	}
	for _, r := range entries {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			plan, err := fault.ParsePlan(r.Plan)
			if err != nil {
				t.Fatalf("reproducer does not parse: %v", err)
			}
			// Minimized reproducers stay minimal: at most 3 fault sites.
			var seen [fault.NumSites]bool
			sites := 0
			for s := fault.GLDrop; s < fault.NumSites; s++ {
				if plan.Rates[s] > 0 {
					seen[s] = true
				}
			}
			for _, e := range plan.Events {
				seen[e.Site] = true
			}
			for s := fault.GLDrop; s < fault.NumSites; s++ {
				if seen[s] {
					sites++
				}
			}
			if sites > 3 {
				t.Fatalf("reproducer touches %d sites, want <= 3 (not minimal): %s", sites, r.Plan)
			}
			if _, err := r.Replay(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestChaosCampaignGolden reruns the `make chaos-smoke` campaign (seed 7,
// 24 plans, every oracle) and compares its counts and its minimized
// findings with testdata/chaos-campaign.golden. TestCampaignIsDeterministic
// only compares two runs of one build; this pins the generator, the
// oracles and the minimizer across commits. Refresh after an intended
// change with
//
//	go test -run TestChaosCampaignGolden -update .
func TestChaosCampaignGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign-scale test; make chaos-smoke runs it")
	}
	rep, err := chaos.Campaign(chaos.CampaignConfig{Seed: 7, Budget: 24})
	if err != nil {
		t.Fatal(err)
	}
	lines := []string{fmt.Sprintf("campaign %d %d %d %d", rep.Runs, rep.Clean, rep.Tripped, rep.Errors)}
	for i, f := range rep.Findings {
		lines = append(lines, fmt.Sprintf("finding/%d %d %s %d %s", i, f.Index, f.Verdict.Key(), f.Shrink.Runs, f.Minimized))
	}
	if *updateGoldens {
		writeGolden(t, chaosGoldenPath, "# Chaos campaign seed=7 budget=24 oracles=all (make chaos-smoke).\n"+
			"# Regenerate with: go test -run TestChaosCampaignGolden -update .\n"+
			"# campaign runs clean tripped errors\n"+
			"# finding/<n> plan-index verdict shrink-runs minimized-plan\n", lines)
		return
	}
	checkGolden(t, chaosGoldenPath, lines, func(key string, got, want []string) {
		t.Errorf("%s: %v, golden %v — campaign changed; refresh with -update if intended", key, got, want)
	})
}

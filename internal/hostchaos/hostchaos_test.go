package hostchaos

import (
	"encoding/json"
	"testing"

	"repro/internal/chaos"
	"repro/internal/serve"
	"repro/internal/serve/hostfault"
)

// skipInShort drops the multi-second server campaigns from -short runs;
// `make serve-chaos-smoke` runs them under the race detector instead.
func skipInShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("campaign-scale test; covered by make serve-chaos-smoke")
	}
}

func mustPlan(t *testing.T, s string) *hostfault.Plan {
	t.Helper()
	p, err := hostfault.ParsePlan(s)
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", s, err)
	}
	return p
}

// A burst of executor failures must be absorbed by retries with every
// oracle green and the conservation ledger exact.
func TestRunPlanAbsorbsExecFaults(t *testing.T) {
	skipInShort(t)
	cfg := RunConfig{}
	baseline, err := Baseline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunPlan(cfg, mustPlan(t, "seed=7,exec.fail#1,exec.panic#1"))
	if err != nil {
		t.Fatal(err)
	}
	Check(cfg, out, baseline)
	if v := out.Tripped(); v != nil {
		t.Fatalf("oracle tripped: %s", v)
	}
	if out.Counters[serve.MetricCellRetries] == 0 {
		t.Fatal("no retries recorded under injected executor faults")
	}
	if out.Fired[hostfault.ExecFail.String()] == 0 || out.Fired[hostfault.ExecPanic.String()] == 0 {
		t.Fatalf("fault sites never fired: %v", out.Fired)
	}
	for _, j := range out.Jobs {
		if j.State != serve.StateDone {
			t.Fatalf("job %s ended %s (%s), want done", j.ID, j.State, j.Error)
		}
	}
}

// Spill faults must degrade the disk tier without changing bytes or
// failing jobs, and the spill-error metric must reconcile.
func TestRunPlanAbsorbsSpillFaults(t *testing.T) {
	skipInShort(t)
	cfg := RunConfig{SpillDir: t.TempDir()}
	baseline, err := Baseline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.SpillDir = t.TempDir()
	out, err := RunPlan(cfg2, mustPlan(t, "seed=3,spill.writefail#1,spill.corrupt#1"))
	if err != nil {
		t.Fatal(err)
	}
	Check(cfg2, out, baseline)
	if v := out.Tripped(); v != nil {
		t.Fatalf("oracle tripped: %s", v)
	}
	if out.Fired[hostfault.SpillWriteFail.String()] == 0 {
		t.Fatalf("spill.writefail never fired: %v", out.Fired)
	}
}

// A seeded campaign is deterministic (two runs render byte-identical
// reports) and the self-healing machinery keeps every run clean.
func TestCampaignDeterministicAndClean(t *testing.T) {
	skipInShort(t)
	cfg := CampaignConfig{Seed: 11, Budget: 5}
	first, err := Campaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Runs != cfg.Budget {
		t.Fatalf("ran %d plans, want %d", first.Runs, cfg.Budget)
	}
	if first.Tripped != 0 {
		t.Fatalf("campaign tripped %d runs: %+v", first.Tripped, first.Findings)
	}
	if first.RetriedRuns == 0 {
		t.Fatal("no campaign run consumed a retry — the generator is not stressing the executor")
	}
	again, err := Campaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		t.Fatalf("campaign not deterministic:\n first: %s\nsecond: %s", a, b)
	}
}

// Minimize must strip atoms that do not contribute to the trip.
func TestMinimize(t *testing.T) {
	plan := mustPlan(t, "seed=1,exec.fail#2,spill.readfail#1,exec.slow=0.5")
	runs := 0
	min, stats := Minimize(plan, func(p *hostfault.Plan) bool {
		runs++
		return p.First[hostfault.ExecFail] > 0
	}, 24)
	if got := min.Atoms(); len(got) != 1 || got[0] != "exec.fail#2" {
		t.Fatalf("minimized to %v, want [exec.fail#2]", got)
	}
	if min.Seed != plan.Seed {
		t.Fatalf("minimization changed the seed: %d -> %d", plan.Seed, min.Seed)
	}
	if stats.Runs != runs || stats.FromAtoms != 3 || stats.ToAtoms != 1 {
		t.Fatalf("stats %+v (predicate ran %d times)", stats, runs)
	}
}

// The committed corpus must replay: every pinned behavior still holds.
func TestCorpusReplay(t *testing.T) {
	corpus, err := LoadCorpus("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) == 0 {
		t.Fatal("corpus is empty — the poison-cell reproducer should be committed")
	}
	for _, r := range corpus {
		if _, err := r.Replay(); err != nil {
			t.Error(err)
		}
	}
}

// Corpus entries survive a write/load round trip.
func TestCorpusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := Reproducer{
		Name:     "roundtrip",
		Note:     "provenance line",
		Plan:     "seed=5,exec.panic#1",
		Verdict:  chaos.Violation{Oracle: OracleConservation, Kind: "exec-leak"},
		Attempts: 4,
	}
	if _, err := WriteCorpus(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("loaded %d entries, want 1", len(got))
	}
	r := got[0]
	if r.Name != want.Name || r.Note != want.Note || r.Plan != want.Plan ||
		r.Verdict.Key() != want.Verdict.Key() || r.Attempts != want.Attempts {
		t.Fatalf("round trip drifted: %+v vs %+v", r, want)
	}
	if _, err := WriteCorpus(dir, Reproducer{Name: "bad", Plan: "seed=1,exec.fail#1"}); err == nil {
		t.Fatal("entry without a pin must not validate")
	}
}

// The in-process kill/restart check: journaled jobs survive losing their
// server and recover byte-identically.
func TestKillRestartRecovers(t *testing.T) {
	cfg := RunConfig{}
	baseline, err := Baseline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := KillRestart(cfg, baseline); err != nil {
		t.Fatal(err)
	}
}

package chaos

import (
	"strings"
	"testing"

	"repro/internal/fault"
)

// fastRun keeps unit-test chaos runs small: 4 iterations (16 episodes) on
// the default 16-core mesh, with a tight watchdog.
func fastRun() RunConfig {
	return RunConfig{Iters: 4, CycleBudget: 2_000_000, StallLimit: 60_000}
}

// chaosRecovery is the tightened guard config campaign plans use.
func chaosRecovery(disabled bool) fault.Recovery {
	return fault.Recovery{
		Disabled:        disabled,
		Timeout:         2048,
		MaxRetries:      2,
		FallbackPenalty: 256,
		StickyAfter:     4,
	}
}

func TestCleanPlanTripsNothing(t *testing.T) {
	out := RunPlan(fastRun(), &fault.Plan{Seed: 1, Recovery: chaosRecovery(false)})
	if out.RunErr != "" {
		t.Fatalf("clean run failed: %s", out.RunErr)
	}
	if v := out.Tripped(); v != nil {
		t.Fatalf("clean run tripped %s", v)
	}
	if out.Report == nil || out.Report.BarrierEpisodes != 16 {
		t.Fatalf("want 16 episodes, got %+v", out.Report)
	}
}

func TestUnguardedDropTripsLiveness(t *testing.T) {
	plan := &fault.Plan{
		Seed:     1,
		Recovery: chaosRecovery(true),
		Events:   []fault.Event{{Site: fault.GLDrop, From: 0, Until: 1 << 40, Loc: -1}},
	}
	out := RunPlan(fastRun(), plan)
	if out.RunErr == "" {
		t.Fatalf("unguarded total drop should wedge, got clean run")
	}
	v := out.Tripped()
	if v == nil || v.Oracle != OracleLiveness || v.Kind != KindNoProgress {
		t.Fatalf("want liveness/no-progress, got %v (violations %v)", v, out.Violations)
	}
}

func TestGuardedDropRecoversCleanly(t *testing.T) {
	plan := &fault.Plan{
		Seed:     1,
		Recovery: chaosRecovery(false),
		Events:   []fault.Event{{Site: fault.GLDrop, From: 0, Until: 1 << 40, Loc: -1}},
	}
	out := RunPlan(fastRun(), plan)
	if out.RunErr != "" {
		t.Fatalf("guarded run failed: %s", out.RunErr)
	}
	if v := out.Tripped(); v != nil {
		t.Fatalf("guarded recovery tripped %s (violations %v)", v, out.Violations)
	}
}

func TestUnguardedSpuriousTripsSafety(t *testing.T) {
	plan := &fault.Plan{
		Seed:     1,
		Recovery: chaosRecovery(true),
		Events:   []fault.Event{{Site: fault.GLSpurious, From: 0, Until: 1 << 40, Loc: -1}},
	}
	out := RunPlan(fastRun(), plan)
	found := false
	for _, v := range out.Violations {
		if v.Oracle == OracleSafety {
			found = true
		}
	}
	if !found {
		t.Fatalf("unguarded spurious assertions should break safety, got %v (runErr %s)",
			out.Violations, out.RunErr)
	}
}

func TestGuardedSpuriousIsSuppressed(t *testing.T) {
	plan := &fault.Plan{
		Seed:     7,
		Recovery: chaosRecovery(false),
		Events:   []fault.Event{{Site: fault.GLSpurious, From: 0, Until: 1 << 40, Loc: -1}},
	}
	out := RunPlan(fastRun(), plan)
	if out.RunErr != "" {
		t.Fatalf("guarded run failed: %s", out.RunErr)
	}
	for _, v := range out.Violations {
		if v.Oracle == OracleSafety {
			t.Fatalf("guard let a safety violation through: %s", v)
		}
	}
}

func TestRunPlanDeterministic(t *testing.T) {
	plan := &fault.Plan{
		Seed:     3,
		Recovery: chaosRecovery(true),
		Rates:    ratesWith(fault.GLDrop, 1e-2),
	}
	a := RunPlan(fastRun(), plan)
	b := RunPlan(fastRun(), plan)
	if len(a.Violations) != len(b.Violations) {
		t.Fatalf("violation counts differ: %d vs %d", len(a.Violations), len(b.Violations))
	}
	for i := range a.Violations {
		if a.Violations[i] != b.Violations[i] {
			t.Fatalf("violation %d differs: %v vs %v", i, a.Violations[i], b.Violations[i])
		}
	}
	if a.RunErr != b.RunErr {
		t.Fatalf("run errors differ: %q vs %q", a.RunErr, b.RunErr)
	}
	if a.Report != nil && b.Report != nil && a.Report.Fingerprint() != b.Report.Fingerprint() {
		t.Fatalf("fingerprints differ: %s vs %s", a.Report.Fingerprint(), b.Report.Fingerprint())
	}
}

func ratesWith(s fault.Site, r float64) [fault.NumSites]float64 {
	var rates [fault.NumSites]float64
	rates[s] = r
	return rates
}

func TestParseOracles(t *testing.T) {
	set, err := ParseOracles("safety,conservation")
	if err != nil {
		t.Fatal(err)
	}
	if !set.Safety || set.Liveness || !set.Conservation {
		t.Fatalf("bad set %+v", set)
	}
	if got := set.String(); got != "safety,conservation" {
		t.Fatalf("String() = %q", got)
	}
	if all, err := ParseOracles("all"); err != nil || all != AllOracles() {
		t.Fatalf("all: %+v, %v", all, err)
	}
	if _, err := ParseOracles("sloth"); err == nil {
		t.Fatal("want error for unknown oracle")
	}
	if _, err := ParseOracles(""); err == nil {
		t.Fatal("want error for empty selection")
	}
}

func TestParseVerdict(t *testing.T) {
	oracles := []string{OracleSafety, OracleLiveness, OracleConservation}
	v, err := ParseVerdict("liveness/no-progress", oracles...)
	if err != nil {
		t.Fatal(err)
	}
	if v.Oracle != OracleLiveness || v.Kind != KindNoProgress {
		t.Fatalf("bad verdict %+v", v)
	}
	for _, bad := range []string{"", "liveness", "sloth/naps"} {
		if _, err := ParseVerdict(bad, oracles...); err == nil {
			t.Fatalf("want error for %q", bad)
		}
	}
	// Only the caller's oracles are accepted.
	if _, err := ParseVerdict("liveness/no-progress", OracleSafety); err == nil {
		t.Fatal("want error for an oracle outside the accepted names")
	}
}

func TestLivenessBound(t *testing.T) {
	plan := &fault.Plan{Recovery: chaosRecovery(false)}
	bound := livenessBound(plan, 4_000_000)
	// timeout 2048 with 2 retries: 2048 + 4096 + 8192 plus penalty+slack.
	want := uint64(2048+4096+8192) + 256 + 4096
	if bound != want {
		t.Fatalf("bound = %d, want %d", bound, want)
	}
	if b := livenessBound(plan, 1000); b != 1000 {
		t.Fatalf("bound should clamp to budget, got %d", b)
	}
}

func TestOutcomeMatches(t *testing.T) {
	out := Outcome{Violations: []Violation{
		{Oracle: OracleSafety, Kind: KindPrematureRelease},
		{Oracle: OracleLiveness, Kind: KindNoProgress},
	}}
	if !out.Matches(Violation{Oracle: OracleLiveness, Kind: KindNoProgress}) {
		t.Fatal("should match second violation")
	}
	if out.Matches(Violation{Oracle: OracleConservation, Kind: KindLostEpisodes}) {
		t.Fatal("should not match absent verdict")
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Oracle: OracleSafety, Kind: KindDoubleRelease, Cycle: 42, Detail: "core 3"}
	s := v.String()
	for _, want := range []string{"safety/double-release", "@42", "core 3"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

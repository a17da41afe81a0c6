package chaos

import (
	"testing"

	"repro/internal/fault"
)

// noisyWedge builds a plan whose only real killer is the unguarded
// total G-line drop; the watch/NoC rates and the miscount burst are inert
// noise the minimizer must strip (the synthetic barrier loop never sends
// NoC packets or takes the spin-watch path).
func noisyWedge() *fault.Plan {
	p := &fault.Plan{
		Seed:     11,
		Recovery: chaosRecovery(true),
		Events: []fault.Event{
			{Site: fault.GLDrop, From: 0, Until: 1 << 40, Loc: -1},
			{Site: fault.SCSMAMiscount, From: 5000, Until: 6000, Loc: -1, K: 2},
		},
	}
	p.Rates[fault.WatchDrop] = 1e-2
	p.Rates[fault.NoCCorrupt] = 1e-3
	return p
}

func TestMinimizeStripsNoiseAtoms(t *testing.T) {
	plan := noisyWedge()
	out := RunPlan(fastRun(), plan)
	v := out.Tripped()
	if v == nil {
		t.Fatal("seed plan should trip an oracle")
	}
	min, stats := Minimize(fastRun(), plan, *v, 200)
	if stats.FromAtoms != 4 {
		t.Fatalf("want 4 starting atoms, got %d", stats.FromAtoms)
	}
	if stats.ToAtoms != 1 {
		t.Fatalf("want 1 surviving atom, got %d (plan %s)", stats.ToAtoms, min.String())
	}
	if n := countSites(min); n != 1 {
		t.Fatalf("want 1 site, got %d", n)
	}
	if min.Rates[fault.WatchDrop] != 0 || min.Rates[fault.NoCCorrupt] != 0 {
		t.Fatalf("noise rates survived: %s", min.String())
	}
	if !RunPlan(fastRun(), min).Matches(*v) {
		t.Fatalf("minimized plan lost the verdict %s: %s", v.Key(), min.String())
	}
	if stats.Runs > 200 {
		t.Fatalf("minimization overspent its budget: %d runs", stats.Runs)
	}
}

func TestMinimizeShrinksEventWindow(t *testing.T) {
	// A wedge only needs the drop window to cover one episode's arrivals;
	// the huge window should bisect down massively.
	plan := &fault.Plan{
		Seed:     11,
		Recovery: chaosRecovery(true),
		Events:   []fault.Event{{Site: fault.GLDrop, From: 0, Until: 1 << 40, Loc: -1}},
	}
	out := RunPlan(fastRun(), plan)
	v := out.Tripped()
	if v == nil {
		t.Fatal("seed plan should trip an oracle")
	}
	min, _ := Minimize(fastRun(), plan, *v, 300)
	if len(min.Events) != 1 {
		t.Fatalf("want 1 event, got %s", min.String())
	}
	if w := min.Events[0].Until - min.Events[0].From; w >= 1<<40 {
		t.Fatalf("window did not shrink: %s", min.String())
	}
	if !RunPlan(fastRun(), min).Matches(*v) {
		t.Fatalf("minimized plan lost the verdict: %s", min.String())
	}
}

func TestMinimizeIsDeterministic(t *testing.T) {
	plan := noisyWedge()
	v := *RunPlan(fastRun(), plan).Tripped()
	a, sa := Minimize(fastRun(), plan, v, 150)
	b, sb := Minimize(fastRun(), plan, v, 150)
	if a.String() != b.String() {
		t.Fatalf("minimization diverged: %q vs %q", a.String(), b.String())
	}
	if sa != sb {
		t.Fatalf("stats diverged: %+v vs %+v", sa, sb)
	}
}

func TestMinimizedPlanRoundTripsThroughParser(t *testing.T) {
	plan := noisyWedge()
	v := *RunPlan(fastRun(), plan).Tripped()
	min, _ := Minimize(fastRun(), plan, v, 150)
	parsed, err := fault.ParsePlan(min.String())
	if err != nil {
		t.Fatalf("minimized plan %q does not parse: %v", min.String(), err)
	}
	if !RunPlan(fastRun(), parsed).Matches(v) {
		t.Fatalf("re-parsed reproducer lost the verdict: %s", min.String())
	}
}

func TestSplitAndComplement(t *testing.T) {
	atoms := []int{1, 2, 3, 4, 5}
	chunks := split(atoms, 2)
	if len(chunks) != 2 || len(chunks[0])+len(chunks[1]) != 5 {
		t.Fatalf("bad split: %d chunks", len(chunks))
	}
	chunks = split(atoms, 9)
	if len(chunks) != 5 {
		t.Fatalf("overshooting n should clamp to len, got %d chunks", len(chunks))
	}
	comp := complement(chunks, 0)
	if len(comp) != 4 || comp[0] != 2 {
		t.Fatalf("bad complement: %v", comp)
	}
}

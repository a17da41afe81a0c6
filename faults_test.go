package repro

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// readGoldenFingerprints loads the committed golden file, skipping the test
// when it does not exist yet.
func readGoldenFingerprints(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Skipf("no golden file: %v", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) == 2 {
			want[fields[0]] = fields[1]
		}
	}
	return want
}

// runWithPlan is runFresh with a fault plan installed (nil plan = plain run).
func runWithPlan(cores int, w Workload, kind BarrierKind, plan *fault.Plan) (*Report, error) {
	cfg := config.Default(cores)
	cfg.Faults = plan
	sys, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	return workload.Run(context.Background(), sys, w, kind, cores, defaultCycleBudget)
}

// TestEmptyFaultPlanDoesNotChangeFingerprints reruns every golden cell with
// an armed-but-empty fault plan: the injector is wired into the G-lines, the
// NoC and the L1 watches, and the GL runs sit behind the recovering guard —
// but no site has a rate or event, so every fingerprint must still match the
// committed golden value. This is the zero-fault transparency guarantee.
func TestEmptyFaultPlanDoesNotChangeFingerprints(t *testing.T) {
	want := readGoldenFingerprints(t)
	cells := goldenCells()
	specs := make([]sweep.Spec, len(cells))
	for i, c := range cells {
		c := c
		specs[i] = sweep.Spec{
			Label: c.key,
			Run: func(context.Context) (*Report, error) {
				return runWithPlan(goldenCores, c.w, c.kind, &fault.Plan{Seed: 0xfee1})
			},
		}
	}
	results := sweep.Run(Parallel, specs)
	for i, c := range cells {
		if results[i].Err != nil {
			t.Fatalf("%s: %v", c.key, results[i].Err)
		}
		wantFP, ok := want[c.key]
		if !ok {
			t.Errorf("%s: no golden entry", c.key)
			continue
		}
		if got := results[i].Fingerprint(); got != wantFP {
			t.Errorf("%s: empty-plan fingerprint %s != golden %s — a dormant injector changed behavior", c.key, got, wantFP)
		}
	}
}

// TestFaultPlanFingerprintDeterminism runs the same faulty configuration
// several times — sequentially and across a parallel sweep — and requires
// every determinism fingerprint to agree: fault injection is a pure function
// of (plan, cycle, site), never of scheduling.
func TestFaultPlanFingerprintDeterminism(t *testing.T) {
	const replicas = 4
	plan := FaultPlan(1e-3)
	specs := make([]sweep.Spec, replicas)
	for i := range specs {
		i := i
		specs[i] = sweep.Spec{
			Label: fmt.Sprintf("replica%d", i),
			Run: func(context.Context) (*Report, error) {
				return runWithPlan(goldenCores, workload.TestSynthetic(), GL, FaultPlan(1e-3))
			},
		}
	}
	results := sweep.Run(SweepOptions{Jobs: replicas}, specs)
	if err := sweep.Errs(results); err != nil {
		t.Fatal(err)
	}
	want := results[0].Fingerprint()
	for i, r := range results {
		if r.Fingerprint() != want {
			t.Fatalf("parallel replica %d fingerprint %s != %s under plan %q", i, r.Fingerprint(), want, plan)
		}
	}
	seq, err := runWithPlan(goldenCores, workload.TestSynthetic(), GL, FaultPlan(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Fingerprint() != want {
		t.Fatalf("sequential run fingerprint %s != parallel %s under plan %q", seq.Fingerprint(), want, plan)
	}
	if seq.Metrics.Counters["fault.injected"] == 0 {
		t.Fatalf("plan %q injected no faults; the determinism check proved nothing", plan)
	}
}

// TestGuardedRecoversWhereUnguardedWedges is the resilience subsystem's core
// claim: under a fault load where the published (unguarded) G-line protocol
// deadlocks, the recovering guard completes every barrier with bounded
// retries and fallbacks. The comparison runs at 32 cores, on the clustered
// network of an 8x4 mesh.
//
// A slave asserts its arrival once, so a dropped arrival pulse is lost for
// good unless a spurious pulse or an over-count refills the master's count.
// The full FaultPlan injects both, and at this rate they can make up the
// drops, so the unguarded wedge is taken from a drop-only plan with the same
// seed, rate and timeout: nothing refills a lost arrival there.
func TestGuardedRecoversWhereUnguardedWedges(t *testing.T) {
	const cores = 32
	const rate = 1e-2

	guarded := FaultPlan(rate)
	dropOnly := &fault.Plan{Seed: guarded.Seed, Recovery: guarded.Recovery}
	dropOnly.Rates[fault.GLDrop] = rate
	for _, plan := range []*fault.Plan{guarded, dropOnly} {
		rep, err := runWithPlan(cores, workload.TestSynthetic(), GL, plan)
		if err != nil {
			t.Fatalf("guarded run under %q failed: %v", plan, err)
		}
		if retries := rep.Metrics.Counters["gl.retries"]; retries == 0 {
			t.Errorf("guarded run under %q saw no retries; the fault load proved nothing", plan)
		}
		if rep.Hang != nil {
			t.Errorf("guarded run under %q tripped the watchdog: %s", plan, rep.Hang.Reason)
		}
	}

	raw := *dropOnly
	raw.Recovery.Disabled = true
	cfg := config.Default(cores)
	cfg.Faults = &raw
	sys, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Eng.StallLimit = rawStallLimit
	rawRep, err := workload.Run(context.Background(), sys, workload.TestSynthetic(), GL, cores, defaultCycleBudget)
	if err == nil {
		t.Fatalf("unguarded run completed under %q; expected a wedged barrier (fingerprint %s)", &raw, rawRep.Fingerprint())
	}
}

// TestRandomFaultSchedulesLiveness is the liveness property test: under
// randomly drawn fault plans (random seeds, random per-site rates) on a
// small mesh, every guarded GL run must still complete all its barriers
// within the cycle budget — the escalation ladder may never strand a core.
// Safety (no early release) is asserted by the guard tests in internal/core;
// here workload.Run additionally verifies the logical episode count.
func TestRandomFaultSchedulesLiveness(t *testing.T) {
	plans := 12
	if testing.Short() {
		plans = 4
	}
	rng := rand.New(rand.NewSource(0x600d))
	for i := 0; i < plans; i++ {
		plan := &fault.Plan{
			Seed:     rng.Uint64(),
			Recovery: fault.Recovery{Timeout: 2_000},
		}
		for s := fault.Site(0); s < fault.NumSites; s++ {
			if s == fault.GLStuckLow || s == fault.GLStuckHigh {
				continue // event-only sites carry no rate
			}
			if rng.Intn(2) == 1 {
				plan.Rates[s] = rng.Float64() * 2e-2
			}
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("plan %d invalid: %v", i, err)
		}
		rep, err := runWithPlan(8, workload.TestSynthetic(), GL, plan)
		if err != nil {
			t.Errorf("plan %d (%s): guarded run failed: %v", i, plan, err)
			continue
		}
		if rep.Hang != nil {
			t.Errorf("plan %d (%s): watchdog fired: %s", i, plan, rep.Hang.Reason)
		}
	}
}

// TestSoftwareBarrierLeavesGLinesDark pins power gating of idle G-line
// networks. A software-barrier run never arrives at a G-line barrier, so
// its network — clustered at 32 cores — must stay switched off under a
// G-line fault plan: no active cycles and no fault on any line. Stepping
// the idle lines joining the clusters whenever the rest of the chip was
// busy used to inject spurious pulses into them and count every such
// cycle as active.
func TestSoftwareBarrierLeavesGLinesDark(t *testing.T) {
	const cores = 32
	if config.Default(cores).GLFitsFlat() {
		t.Fatalf("%d cores fit a flat G-line network; the check needs a clustered one", cores)
	}
	for _, kind := range []BarrierKind{CSW, DSW} {
		rep, err := runWithPlan(cores, &workload.Synthetic{Iters: 5}, kind, FaultPlan(1e-3))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if rep.GLActiveCycles != 0 {
			t.Errorf("%s: GLActiveCycles = %d on a network no core uses, want 0", kind, rep.GLActiveCycles)
		}
		for _, name := range rep.Metrics.SortedCounterNames() {
			v := rep.Metrics.Counters[name]
			if v != 0 && (strings.HasPrefix(name, fault.MetricInjectedPrefix+"gl.") || strings.HasPrefix(name, fault.MetricInjectedPrefix+"scsma.")) {
				t.Errorf("%s: %s = %d on a network no core uses, want 0", kind, name, v)
			}
		}
		if rep.Metrics.Counters[fault.MetricInjectedPrefix+"noc.corrupt"] == 0 {
			t.Errorf("%s: the plan injected no NoC faults either; the check is vacuous", kind)
		}
	}
}

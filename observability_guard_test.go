package repro

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runObserved is runFresh with every observability feature turned on: a
// span timeline across every component, the JSON export, the Chrome trace
// export and the link heatmap all rendered after the run. Instrumentation
// must be pure observation — none of it may perturb simulated timing.
func runObserved(cores int, w Workload, kind BarrierKind) (*Report, error) {
	sys, err := sim.New(config.Default(cores))
	if err != nil {
		return nil, err
	}
	tl := sys.AttachTimeline(1 << 16)
	rep, err := workload.Run(context.Background(), sys, w, kind, cores, defaultCycleBudget)
	if err != nil {
		return rep, err
	}
	if _, jerr := rep.JSON(); jerr != nil {
		return rep, fmt.Errorf("JSON export: %w", jerr)
	}
	var traceBuf strings.Builder
	if terr := tl.WriteChrome(&traceBuf, nil); terr != nil {
		return rep, fmt.Errorf("Chrome trace export: %w", terr)
	}
	if verr := trace.ValidateChrome([]byte(traceBuf.String())); verr != nil {
		return rep, fmt.Errorf("Chrome trace shape: %w", verr)
	}
	_ = sys.Prot.Mesh().Heatmap()
	return rep, nil
}

// TestObservabilityDoesNotChangeFingerprints reruns every golden cell with
// full observability enabled and requires each determinism fingerprint to
// match the committed golden value: metrics, tracing and report export must
// never alter a run's behavior.
func TestObservabilityDoesNotChangeFingerprints(t *testing.T) {
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
		fields := strings.Fields(line)
		if len(fields) == 2 {
			want[fields[0]] = fields[1]
		}
	}

	cells := goldenCells()
	specs := make([]sweep.Spec, len(cells))
	for i, c := range cells {
		c := c
		specs[i] = sweep.Spec{
			Label: c.key,
			Run:   func(context.Context) (*Report, error) { return runObserved(goldenCores, c.w, c.kind) },
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
			t.Errorf("%s: observed run fingerprint %s != golden %s — instrumentation changed behavior", c.key, got, wantFP)
		}
	}
}

// TestHostWorkCountersRepeat pins the host-work counters as deterministic:
// two fresh runs of a cell report them identically, so a change in host
// work shows up bit for bit. Each counter must also be live on a cell that
// exercises its layer, and the mesh cannot visit more routers than a full
// scan of every stepped cycle would.
func TestHostWorkCountersRepeat(t *testing.T) {
	cells := []goldenCell{
		{key: "KERN2/DSW", w: workload.TestKernel2(), kind: DSW},
		{key: "SYNTH/GL", w: workload.TestSynthetic(), kind: GL},
	}
	for _, c := range cells {
		c := c
		t.Run(c.key, func(t *testing.T) {
			var runs [2]*Report
			for i := range runs {
				rep, err := runFresh(context.Background(), goldenCores, c.w, c.kind)
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = rep
			}
			for _, name := range workCounters {
				a, b := runs[0].Metrics.Counters[name], runs[1].Metrics.Counters[name]
				if a != b {
					t.Errorf("%s differs between identical runs: %d vs %d", name, a, b)
				}
			}
			ctr := runs[0].Metrics.Counters
			live := map[BarrierKind]string{DSW: "noc.router.steps", GL: "gl.steps"}[c.kind]
			if ctr["engine.ticks"] == 0 || ctr[live] == 0 {
				t.Errorf("engine.ticks = %d, %s = %d; want both > 0", ctr["engine.ticks"], live, ctr[live])
			}
			stepped := runs[0].Cycles - ctr["engine.fastforward.cycles"]
			if scan := stepped * goldenCores; ctr["noc.router.steps"] > scan {
				t.Errorf("noc.router.steps = %d exceeds a full scan of %d stepped cycles (%d)", ctr["noc.router.steps"], stepped, scan)
			}
		})
	}
}

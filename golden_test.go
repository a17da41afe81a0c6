package repro

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sweep"
	"repro/internal/workload"
)

// updateGoldens rewrites the committed fingerprints and host work, and the
// pinned chaos campaign, from the current run:
//
//	go test -run 'TestGoldenFingerprints|TestChaosCampaignGolden' -update .
var updateGoldens = flag.Bool("update", false, "rewrite testdata/fingerprints.golden, testdata/work.golden and testdata/chaos-campaign.golden from this run")

const (
	goldenPath     = "testdata/fingerprints.golden"
	workGoldenPath = "testdata/work.golden"
	goldenCores    = 16
)

// workCounters are the host-work counters testdata/work.golden pins per
// golden cell: events dispatched, component ticks, fast-forward jumps and
// the cycles they skipped, router visits and G-line context steps. They
// stay outside the fingerprint, so a change to how the simulator does its
// work (not to what it computes) shows up here and nowhere else.
var workCounters = []string{
	"engine.events.executed",
	"engine.ticks",
	"engine.fastforward.jumps",
	"engine.fastforward.cycles",
	"noc.router.steps",
	"gl.steps",
}

// goldenCell names one pinned run of the test tier.
type goldenCell struct {
	key  string
	w    Workload
	kind BarrierKind
}

// goldenCells pins the synthetic workload under all three barrier kinds
// plus the full test-tier suite under the two Figure 6/7 barriers.
func goldenCells() []goldenCell {
	var cells []goldenCell
	for _, kind := range []BarrierKind{CSW, DSW, GL} {
		cells = append(cells, goldenCell{
			key:  fmt.Sprintf("SYNTH/%s/%d", kind, goldenCores),
			w:    workload.TestSynthetic(),
			kind: kind,
		})
	}
	for _, w := range workload.TestSuite() {
		for _, kind := range []BarrierKind{DSW, GL} {
			cells = append(cells, goldenCell{
				key:  fmt.Sprintf("%s/%s/%d", w.Name(), kind, goldenCores),
				w:    w,
				kind: kind,
			})
		}
	}
	return cells
}

// TestDeterminismTwice runs the synthetic workload twice per barrier kind
// on fresh systems and requires identical fingerprints: the simulator must
// be a pure function of its inputs.
func TestDeterminismTwice(t *testing.T) {
	for _, kind := range []BarrierKind{CSW, DSW, GL} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			fp := func() string {
				rep, err := runFresh(context.Background(), goldenCores, workload.TestSynthetic(), kind)
				if err != nil {
					t.Fatal(err)
				}
				return rep.Fingerprint()
			}
			if a, b := fp(), fp(); a != b {
				t.Errorf("two fresh runs fingerprint differently: %s vs %s", a, b)
			}
		})
	}
}

// TestGoldenFingerprints regenerates every pinned test-tier run and
// compares fingerprints against testdata/fingerprints.golden and host-work
// counters against testdata/work.golden. Run with -update after an
// intentional behavioral change to refresh both (see EXPERIMENTS.md); a
// change that moves only host work refreshes work.golden the same way and
// says why.
func TestGoldenFingerprints(t *testing.T) {
	cells := goldenCells()
	specs := make([]sweep.Spec, len(cells))
	for i, c := range cells {
		specs[i] = benchSpec(goldenCores, c.w, c.kind)
	}
	results := sweep.Run(Parallel, specs)
	fps := make([]string, len(cells))
	work := make([]string, len(cells))
	for i, c := range cells {
		if results[i].Err != nil {
			t.Fatalf("%s: %v", c.key, results[i].Err)
		}
		fps[i] = c.key + " " + results[i].Fingerprint()
		line := c.key
		for _, name := range workCounters {
			line += fmt.Sprintf(" %d", results[i].Report.Metrics.Counters[name])
		}
		work[i] = line
	}
	fpHeader := "# Determinism fingerprints of the test tier (" +
		fmt.Sprintf("%d cores", goldenCores) + ").\n" +
		"# Regenerate with: go test -run TestGoldenFingerprints -update .\n"
	workHeader := "# Host work of the test tier (" + fmt.Sprintf("%d cores", goldenCores) +
		"): Report.Metrics counters per golden cell.\n" +
		"# Regenerate with: go test -run TestGoldenFingerprints -update .\n" +
		"# cell " + strings.Join(workCounters, " ") + "\n"

	if *updateGoldens {
		writeGolden(t, goldenPath, fpHeader, fps)
		writeGolden(t, workGoldenPath, workHeader, work)
		return
	}
	checkGolden(t, goldenPath, fps, func(key string, got, want []string) {
		t.Errorf("%s: fingerprint %s, golden %s — behavior changed; refresh with -update if intended", key, got[0], want[0])
	})
	checkGolden(t, workGoldenPath, work, func(key string, got, want []string) {
		for i, name := range workCounters {
			if i >= len(want) {
				t.Errorf("%s: %s = %s, no golden column", key, name, got[i])
			} else if got[i] != want[i] {
				t.Errorf("%s: %s = %s, golden %s — host work changed; refresh with -update if intended", key, name, got[i], want[i])
			}
		}
	})
}

// writeGolden rewrites a golden file: header, then one line per cell.
func writeGolden(t *testing.T, path, header string, lines []string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	content := header + strings.Join(lines, "\n") + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %s with %d cells", path, len(lines))
}

// checkGolden compares "key value..." lines against a golden file of the
// same shape ('#' lines are comments). Each cell whose values differ is
// passed to mismatch; missing and stale cells fail the test directly.
func checkGolden(t *testing.T, path string, lines []string, mismatch func(key string, got, want []string)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestGoldenFingerprints -update .` to create it)", err)
	}
	want := make(map[string][]string)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Fatalf("%s: malformed golden line %q", path, line)
		}
		want[fields[0]] = fields[1:]
	}
	got := make(map[string]bool, len(lines))
	for _, line := range lines {
		fields := strings.Fields(line)
		key := fields[0]
		got[key] = true
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: no entry in %s (refresh with -update)", key, path)
			continue
		}
		if strings.Join(w, " ") != strings.Join(fields[1:], " ") {
			mismatch(key, fields[1:], w)
		}
	}
	for key := range want {
		if !got[key] {
			t.Errorf("stale entry %s in %s (refresh with -update)", key, path)
		}
	}
}

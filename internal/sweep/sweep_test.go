package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// fakeReport builds a distinct deterministic report for cell i.
func fakeReport(i int) *sim.Report {
	r := &sim.Report{Cycles: uint64(1000 + i), BarrierEpisodes: uint64(i)}
	r.Breakdown.Add(stats.RegionBusy, uint64(10*i))
	r.Traffic.Add(stats.ClassRequest, i)
	return r
}

// grid builds n well-behaved cells.
func grid(n int) []Spec {
	specs := make([]Spec, n)
	for i := range specs {
		i := i
		specs[i] = Spec{
			Label: fmt.Sprintf("cell%d", i),
			Run:   func(context.Context) (*sim.Report, error) { return fakeReport(i), nil },
		}
	}
	return specs
}

// TestParallelMatchesSequential runs the same grid with jobs=1 and jobs=8
// and requires bit-for-bit identical results in submission order.
func TestParallelMatchesSequential(t *testing.T) {
	specs := grid(37)
	seq := Run(Options{Jobs: 1}, specs)
	par := Run(Options{Jobs: 8}, specs)
	if len(seq) != len(specs) || len(par) != len(specs) {
		t.Fatalf("result lengths %d/%d, want %d", len(seq), len(par), len(specs))
	}
	for i := range specs {
		if seq[i].Label != specs[i].Label || par[i].Label != specs[i].Label {
			t.Errorf("cell %d: labels out of order (%q / %q)", i, seq[i].Label, par[i].Label)
		}
		if seq[i].Err != nil || par[i].Err != nil {
			t.Errorf("cell %d: unexpected errors %v / %v", i, seq[i].Err, par[i].Err)
		}
		sf, pf := seq[i].Fingerprint(), par[i].Fingerprint()
		if sf == "" || sf != pf {
			t.Errorf("cell %d: fingerprints diverge: seq=%s par=%s", i, sf, pf)
		}
		if seq[i].Report.Cycles != par[i].Report.Cycles {
			t.Errorf("cell %d: cycles diverge", i)
		}
	}
}

// TestPanickingCellIsIsolated requires a panicking run to be recovered and
// reported as that cell's error while every other cell completes.
func TestPanickingCellIsIsolated(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		specs := grid(9)
		specs[4] = Spec{Label: "boom", Run: func(context.Context) (*sim.Report, error) { panic("kaboom") }}
		results := Run(Options{Jobs: jobs}, specs)
		for i, r := range results {
			if i == 4 {
				if r.Err == nil || !strings.Contains(r.Err.Error(), "kaboom") {
					t.Errorf("jobs=%d: panic not reported: %v", jobs, r.Err)
				}
				if !strings.Contains(r.Err.Error(), "boom:") {
					t.Errorf("jobs=%d: error not labeled: %v", jobs, r.Err)
				}
				continue
			}
			if r.Err != nil || r.Report == nil {
				t.Errorf("jobs=%d: healthy cell %d affected: %v", jobs, i, r.Err)
			}
		}
		if got := Failed(results); got != 1 {
			t.Errorf("jobs=%d: Failed() = %d, want 1", jobs, got)
		}
		if err := Errs(results); err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Errorf("jobs=%d: Errs() = %v", jobs, err)
		}
	}
}

// TestFailFastSequential pins the deterministic jobs=1 semantics: after
// the first failure every remaining cell is canceled.
func TestFailFastSequential(t *testing.T) {
	specs := grid(6)
	sentinel := errors.New("cell died")
	specs[2] = Spec{Label: "bad", Run: func(context.Context) (*sim.Report, error) { return nil, sentinel }}
	results := Run(Options{Jobs: 1, FailFast: true}, specs)
	for i, r := range results {
		switch {
		case i < 2:
			if r.Err != nil {
				t.Errorf("cell %d ran before the failure but errored: %v", i, r.Err)
			}
		case i == 2:
			if !errors.Is(r.Err, sentinel) {
				t.Errorf("failing cell error = %v, want sentinel", r.Err)
			}
		default:
			if !errors.Is(r.Err, ErrCanceled) {
				t.Errorf("cell %d after failure: err = %v, want ErrCanceled", i, r.Err)
			}
		}
	}
}

// TestFailFastParallel exercises cancellation across workers: the first
// cell fails and closes a gate the second cell waits on. The gate closes
// just before the first cell returns, so the second lingers 50 ms more;
// by the time any later cell is pulled the failure has landed and it must
// be canceled.
func TestFailFastParallel(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{})
	sentinel := errors.New("first cell died")
	specs := []Spec{
		{Label: "fail", Run: func(context.Context) (*sim.Report, error) {
			<-started // don't fail until the second cell is in flight
			defer close(gate)
			return nil, sentinel
		}},
		{Label: "inflight", Run: func(context.Context) (*sim.Report, error) {
			close(started)
			<-gate // started before the failure: must still finish
			time.Sleep(50 * time.Millisecond)
			return fakeReport(1), nil
		}},
	}
	for i := 2; i < 10; i++ {
		i := i
		specs = append(specs, Spec{
			Label: fmt.Sprintf("later%d", i),
			Run:   func(context.Context) (*sim.Report, error) { <-gate; return fakeReport(i), nil },
		})
	}
	results := Run(Options{Jobs: 2, FailFast: true}, specs)
	if !errors.Is(results[0].Err, sentinel) {
		t.Errorf("cell 0: %v, want sentinel", results[0].Err)
	}
	if results[1].Err != nil || results[1].Report == nil {
		t.Errorf("in-flight cell was not allowed to finish: %v", results[1].Err)
	}
	// Workers pull cells in order; every cell after the in-flight one was
	// picked up after the failure landed and must be canceled.
	for i := 2; i < len(results); i++ {
		if !errors.Is(results[i].Err, ErrCanceled) {
			t.Errorf("cell %d: err = %v, want ErrCanceled", i, results[i].Err)
		}
	}
}

// TestWithoutFailFastEverythingRuns is the default contract: one failed
// cell must not abort the sweep.
func TestWithoutFailFastEverythingRuns(t *testing.T) {
	specs := grid(8)
	specs[0] = Spec{Label: "bad", Run: func(context.Context) (*sim.Report, error) { return nil, errors.New("nope") }}
	results := Run(Options{Jobs: 4}, specs)
	for i := 1; i < len(results); i++ {
		if results[i].Err != nil || results[i].Report == nil {
			t.Errorf("cell %d did not run to completion: %v", i, results[i].Err)
		}
	}
}

// TestZeroSpecs and tiny pools must not hang or panic.
func TestEdgeShapes(t *testing.T) {
	if got := Run(Options{}, nil); len(got) != 0 {
		t.Errorf("empty sweep returned %d results", len(got))
	}
	one := Run(Options{Jobs: 16}, grid(1)) // more workers than cells
	if len(one) != 1 || one[0].Err != nil {
		t.Errorf("single-cell sweep: %+v", one)
	}
	if err := Errs(one); err != nil {
		t.Errorf("Errs on clean sweep: %v", err)
	}
}

func TestArtifactDirWritesPerCellJSON(t *testing.T) {
	dir := t.TempDir()
	specs := grid(3)
	specs = append(specs, Spec{
		Label: "weird / label:v2",
		Run:   func(context.Context) (*sim.Report, error) { return fakeReport(99), nil },
	})
	res := Run(Options{Jobs: 2, ArtifactDir: dir}, specs)
	if err := Errs(res); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(specs) {
		t.Fatalf("%d artifacts, want %d", len(entries), len(specs))
	}
	// Index prefix keeps submission order; labels are filename-safe.
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	sort.Strings(names)
	if names[0] != "000_cell0.json" {
		t.Errorf("first artifact %q, want 000_cell0.json", names[0])
	}
	if names[3] != "003_weird---label-v2-3497ca91.json" {
		t.Errorf("sanitized artifact %q", names[3])
	}
	// Each artifact is parseable JSON whose fingerprint matches its cell.
	for i, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: bad JSON: %v", name, err)
		}
		if fp, _ := doc["fingerprint"].(string); fp != res[i].Fingerprint() {
			t.Errorf("%s: fingerprint %q, want %q", name, fp, res[i].Fingerprint())
		}
	}
}

func TestArtifactDirCreationFailure(t *testing.T) {
	// A file where the artifact dir should be makes MkdirAll fail; every
	// cell must report the error instead of silently dropping artifacts.
	blocker := filepath.Join(t.TempDir(), "flat")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	res := Run(Options{ArtifactDir: blocker}, grid(2))
	for i, r := range res {
		if r.Err == nil {
			t.Errorf("cell %d: no error despite unusable artifact dir", i)
		}
	}
}

func TestSanitizeLabel(t *testing.T) {
	// Lossless labels pass through unchanged; lossy sanitization (mapped
	// characters or truncation) appends an 8-hex hash of the raw label.
	cases := map[string]string{
		"":                       "cell",
		"gl 16c":                 "gl-16c-70802cd2",
		"a/b\\c:d":               "a-b-c-d-f9ee7492",
		"ok-name_1.2":            "ok-name_1.2",
		strings.Repeat("x", 200): strings.Repeat("x", 80) + "-b3e4b6e5",
	}
	for in, want := range cases {
		if got := sanitizeLabel(in); got != want {
			t.Errorf("sanitizeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestSanitizeLabelCollisions pins the satellite fix: two distinct labels
// whose sanitized forms used to coincide must now produce distinct
// filenames, even at the same cell index (e.g. cell 0 of two different
// sweeps sharing an artifact directory).
func TestSanitizeLabelCollisions(t *testing.T) {
	pairs := [][2]string{
		{"a/b", "a:b"},
		{"SYNTH/GL/16", "SYNTH:GL:16"},
		{strings.Repeat("y", 81), strings.Repeat("y", 82)},
	}
	for _, p := range pairs {
		if a, b := sanitizeLabel(p[0]), sanitizeLabel(p[1]); a == b {
			t.Errorf("labels %q and %q still collide on %q", p[0], p[1], a)
		}
	}
	// End to end: same index, different raw labels, one directory — the
	// second artifact must not overwrite the first.
	dir := t.TempDir()
	if err := writeArtifact(dir, 0, "a/b", fakeReport(1)); err != nil {
		t.Fatal(err)
	}
	if err := writeArtifact(dir, 0, "a:b", fakeReport(2)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("%d artifacts after two same-index writes, want 2", len(entries))
	}
}

// TestTimeoutAbandonsSlowCell checks that a cell past Options.Timeout
// records ErrTimeout while every other cell still runs and reports.
func TestTimeoutAbandonsSlowCell(t *testing.T) {
	specs := grid(4)
	specs = append(specs, Spec{
		Label: "stuck",
		Run: func(ctx context.Context) (*sim.Report, error) {
			<-ctx.Done() // held open until its deadline ends it
			return fakeReport(99), nil
		},
	})
	specs = append(specs, grid(3)...)
	results := Run(Options{Jobs: 2, Timeout: 50 * time.Millisecond}, specs)
	timedOut := 0
	for i, r := range results {
		if r.Label == "stuck" {
			if !errors.Is(r.Err, ErrTimeout) {
				t.Fatalf("stuck cell err = %v, want ErrTimeout", r.Err)
			}
			timedOut++
			continue
		}
		if r.Err != nil || r.Report == nil {
			t.Errorf("cell %d (%s): err=%v, want clean report", i, r.Label, r.Err)
		}
	}
	if timedOut != 1 {
		t.Fatalf("timed-out cells = %d, want 1", timedOut)
	}
	if Failed(results) != 1 {
		t.Fatalf("Failed = %d, want 1", Failed(results))
	}
}

// TestTimeoutFailFastCancelsRest checks a timeout counts as a failure for
// FailFast purposes: cells that have not started are canceled.
func TestTimeoutFailFastCancelsRest(t *testing.T) {
	specs := []Spec{
		{Label: "stuck", Run: func(ctx context.Context) (*sim.Report, error) { <-ctx.Done(); return nil, nil }},
	}
	specs = append(specs, grid(8)...)
	results := Run(Options{Jobs: 1, FailFast: true, Timeout: 50 * time.Millisecond}, specs)
	if !errors.Is(results[0].Err, ErrTimeout) {
		t.Fatalf("cell 0 err = %v, want ErrTimeout", results[0].Err)
	}
	canceled := 0
	for _, r := range results[1:] {
		if errors.Is(r.Err, ErrCanceled) {
			canceled++
		}
	}
	if canceled != len(specs)-1 {
		t.Fatalf("canceled = %d, want %d", canceled, len(specs)-1)
	}
}

// TestTimeoutDisabledByDefault pins the zero Options running cells on the
// worker goroutine with no deadline.
func TestTimeoutDisabledByDefault(t *testing.T) {
	results := Run(Options{Jobs: 1}, grid(3))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("cell %d: %v", i, r.Err)
		}
	}
}

// TestContextCancelBetweenCells checks an already-canceled context marks
// every cell ErrAborted without running any of them.
func TestContextCancelBetweenCells(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	specs := []Spec{{Label: "never", Run: func(context.Context) (*sim.Report, error) {
		ran++
		return fakeReport(0), nil
	}}}
	specs = append(specs, grid(4)...)
	results := Run(Options{Jobs: 2, Ctx: ctx}, specs)
	if ran != 0 {
		t.Fatalf("canceled sweep still ran %d cells", ran)
	}
	for i, r := range results {
		if !errors.Is(r.Err, ErrAborted) {
			t.Errorf("cell %d: err = %v, want ErrAborted", i, r.Err)
		}
	}
}

// TestContextCancelMidCell checks a cancel landing while a cell is in
// flight stops that cell promptly (ErrAborted) and skips the rest.
func TestContextCancelMidCell(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	entered := make(chan struct{})
	specs := []Spec{
		{Label: "stuck", Run: func(cellCtx context.Context) (*sim.Report, error) {
			close(entered)
			<-cellCtx.Done() // held open: only cancellation can unblock the sweep
			return fakeReport(0), nil
		}},
	}
	specs = append(specs, grid(3)...)
	go func() {
		<-entered
		cancel()
	}()
	results := Run(Options{Jobs: 1, Ctx: ctx}, specs)
	if !errors.Is(results[0].Err, ErrAborted) {
		t.Fatalf("in-flight cell err = %v, want ErrAborted", results[0].Err)
	}
	for i, r := range results[1:] {
		if !errors.Is(r.Err, ErrAborted) {
			t.Errorf("cell %d: err = %v, want ErrAborted", i+1, r.Err)
		}
	}
}

// TestNoCellOutlivesRun checks Run waits for a cell whose context ended
// to return: a cell that lingers 50 ms past its context's end has finished
// by the time Run reports it, for a timeout and for a canceled sweep alike.
func TestNoCellOutlivesRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts func(context.Context) Options
		want error
	}{
		{"timeout", func(ctx context.Context) Options { return Options{Timeout: 20 * time.Millisecond} }, ErrTimeout},
		{"aborted", func(ctx context.Context) Options { return Options{Ctx: ctx} }, ErrAborted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			var finished atomic.Bool
			specs := []Spec{{Label: "lingers", Run: func(cellCtx context.Context) (*sim.Report, error) {
				<-cellCtx.Done()
				time.Sleep(50 * time.Millisecond)
				finished.Store(true)
				return fakeReport(0), nil
			}}}
			results := Run(tc.opts(ctx), specs)
			if !finished.Load() {
				t.Fatal("Run returned while its cell was still running")
			}
			if !errors.Is(results[0].Err, tc.want) {
				t.Fatalf("cell err = %v, want %v", results[0].Err, tc.want)
			}
		})
	}
}

// TestNilContextIsBackground pins the compatibility contract: a zero
// Options (nil Ctx) runs cells directly on the worker goroutine exactly as
// before the field existed.
func TestNilContextIsBackground(t *testing.T) {
	results := Run(Options{}, grid(5))
	for i, r := range results {
		if r.Err != nil || r.Report == nil {
			t.Fatalf("cell %d: %v", i, r.Err)
		}
	}
}

// TestPanicUnderTimeoutIsCaptured checks the deadline path still converts a
// panic into the cell's error with the stack attached.
func TestPanicUnderTimeoutIsCaptured(t *testing.T) {
	specs := []Spec{{Label: "boom", Run: func(context.Context) (*sim.Report, error) { panic("kaboom") }}}
	results := Run(Options{Timeout: time.Second}, specs)
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "kaboom") {
		t.Fatalf("panic not captured under timeout: %v", results[0].Err)
	}
	if !strings.Contains(results[0].Err.Error(), "goroutine") {
		t.Fatalf("panic error missing stack: %v", results[0].Err)
	}
}

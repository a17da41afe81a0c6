package chaos

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// wedgeRepro is a hand-built minimal reproducer: unguarded total G-line
// drop wedges the first episode.
func wedgeRepro() Reproducer {
	return Reproducer{
		Name:        "unit-wedge",
		Note:        "hand-built for corpus tests",
		Plan:        "seed=1,@0-100000:gl.drop:-1:0,recovery.off",
		Verdict:     Violation{Oracle: OracleLiveness, Kind: KindNoProgress},
		Cores:       16,
		Iters:       4,
		CycleBudget: 2_000_000,
		StallLimit:  60_000,
	}
}

func TestCorpusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := wedgeRepro()
	path, err := WriteCorpus(dir, r)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "unit-wedge.repro" {
		t.Fatalf("unexpected path %s", path)
	}
	loaded, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 {
		t.Fatalf("want 1 entry, got %d", len(loaded))
	}
	if loaded[0] != r {
		t.Fatalf("round-trip drift:\nwrote %+v\nread  %+v", r, loaded[0])
	}
}

func TestCorpusReplayPinsVerdict(t *testing.T) {
	r := wedgeRepro()
	out, err := r.Replay()
	if err != nil {
		t.Fatalf("replay failed: %v (violations %v)", err, out.Violations)
	}
	// A plan pinned to the wrong verdict must be flagged as drifted.
	r.Verdict = Violation{Oracle: OracleSafety, Kind: KindDoubleRelease}
	if _, err := r.Replay(); err == nil {
		t.Fatal("want verdict-drift error")
	}
	// A clean plan pinned to any verdict must be flagged too.
	r = wedgeRepro()
	r.Plan = "seed=1"
	if _, err := r.Replay(); err == nil || !strings.Contains(err.Error(), "no longer trips") {
		t.Fatalf("want no-longer-trips error, got %v", err)
	}
	// An entry whose run shape cannot build a system must not replay
	// green on the liveness oracle's no-progress verdict: negative counts
	// are refused at parse time, and a system that cannot be built is a
	// machinery error with no verdict.
	for _, shape := range []string{"cores: -4", "iters: -3"} {
		if _, err := ParseReproducer("bad-shape", "plan: seed=1\noracle: liveness/no-progress\n"+shape+"\n"); err == nil {
			t.Errorf("%s: negative count parsed", shape)
		}
	}
	r, err = ParseReproducer("too-many-cores", "plan: seed=1\noracle: liveness/no-progress\ncores: 100000000\n")
	if err != nil {
		t.Fatal(err)
	}
	if out, err := r.Replay(); err == nil || !strings.Contains(err.Error(), "at most 64 cores") || out.Violations != nil {
		t.Fatalf("want a machinery error and no verdict, got %v with %v", err, out.Violations)
	}
}

func TestParseReproducerErrors(t *testing.T) {
	cases := map[string]string{
		"missing plan":   "oracle: liveness/no-progress\n",
		"missing oracle": "plan: seed=1\n",
		"bad plan":       "plan: seed=banana\noracle: liveness/no-progress\n",
		"bad oracle":     "plan: seed=1\noracle: sloth/naps\n",
		"bad key":        "plan: seed=1\noracle: liveness/no-progress\nflavor: mint\n",
		"bad number":     "plan: seed=1\noracle: liveness/no-progress\ncores: many\n",
		"bare line":      "plan: seed=1\noracle: liveness/no-progress\nnocolon\n",
	}
	for name, text := range cases {
		if _, err := ParseReproducer("x", text); err == nil {
			t.Errorf("%s: want parse error", name)
		}
	}
}

func TestParseReproducerComments(t *testing.T) {
	text := "# first note\n#  second note\n\nplan: seed=1,gl.drop=1e-3\noracle: liveness/no-progress\niters: 2\n"
	r, err := ParseReproducer("noted", text)
	if err != nil {
		t.Fatal(err)
	}
	if r.Note != "first note\nsecond note" {
		t.Fatalf("notes = %q", r.Note)
	}
	if r.Iters != 2 || r.Cores != 0 {
		t.Fatalf("fields = %+v", r)
	}
}

func TestLoadCorpusMissingDirIsEmpty(t *testing.T) {
	got, err := LoadCorpus(filepath.Join(t.TempDir(), "nope"))
	if err != nil || got != nil {
		t.Fatalf("want empty corpus, got %v, %v", got, err)
	}
}

func TestLoadCorpusIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README.md"), []byte("docs"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteCorpus(dir, wedgeRepro()); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 {
		t.Fatalf("want 1 entry, got %d", len(loaded))
	}
}

func TestWriteCorpusValidates(t *testing.T) {
	dir := t.TempDir()
	r := wedgeRepro()
	r.Name = ""
	if _, err := WriteCorpus(dir, r); err == nil {
		t.Fatal("want error for empty name")
	}
	r = wedgeRepro()
	r.Plan = "seed=banana"
	if _, err := WriteCorpus(dir, r); err == nil {
		t.Fatal("want error for unparseable plan")
	}
}

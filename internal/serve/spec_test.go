package serve

import (
	"strings"
	"testing"
	"time"

	"repro/internal/barrier"
	"repro/internal/workload"
)

func TestParseJobSpecDefaults(t *testing.T) {
	spec, err := ParseJobSpec("")
	if err != nil {
		t.Fatal(err)
	}
	cells := spec.Cells()
	if len(cells) != 1 {
		t.Fatalf("default spec expands to %d cells, want 1", len(cells))
	}
	c := cells[0]
	if c.Bench != "SYNTH" || c.Barrier != barrier.KindGL || c.Cores != 32 ||
		c.Seed != 0 || c.Tier != workload.TierTest || c.Threads != 32 ||
		c.MaxCycles != DefaultMaxCycles {
		t.Fatalf("default cell = %+v", c)
	}
}

func TestParseJobSpecGrid(t *testing.T) {
	spec, err := ParseJobSpec("bench=SYNTH|KERN2 barrier=GL|CSW cores=16|32 seed=0|7 tier=test")
	if err != nil {
		t.Fatal(err)
	}
	cells := spec.Cells()
	if len(cells) != 16 {
		t.Fatalf("grid expands to %d cells, want 16", len(cells))
	}
	// Deterministic order: bench outer, then barrier, cores, seed.
	if got := cells[0].Label(); got != "SYNTH/GL/16" {
		t.Errorf("cells[0] = %s", got)
	}
	if got := cells[1].Label(); got != "SYNTH/GL/16/seed7" {
		t.Errorf("cells[1] = %s", got)
	}
	if got := cells[15].Label(); got != "KERN2/CSW/32/seed7" {
		t.Errorf("cells[15] = %s", got)
	}
	// Every cell fingerprint is distinct: the grid has no duplicate inputs.
	seen := map[string]string{}
	for _, c := range cells {
		fp := c.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("cells %s and %s share fingerprint %s", prev, c.Label(), fp)
		}
		seen[fp] = c.Label()
	}
}

func TestParseJobSpecFaults(t *testing.T) {
	spec, err := ParseJobSpec("bench=SYNTH cores=8 tier=test faults=seed=7,gl.drop=1e-4")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Faults == nil {
		t.Fatal("faults directive not parsed")
	}
	in := spec.Cells()[0].Input()
	if in.Config.Faults == nil || in.Config.Faults.Seed != 7 {
		t.Fatalf("cell input lost the fault plan: %+v", in.Config.Faults)
	}
	// Fault plan changes the content address.
	plain, err := ParseJobSpec("bench=SYNTH cores=8 tier=test")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Cells()[0].Fingerprint() == plain.Cells()[0].Fingerprint() {
		t.Fatal("fault plan does not contribute to the cell fingerprint")
	}
}

func TestParseJobSpecRoundTrip(t *testing.T) {
	specs := []string{
		"",
		"bench=KERN2|SYNTH barrier=CSW|GL cores=16|32 tier=test",
		"bench=SYNTH cores=8 tier=test seed=1|2 threads=4 max_cycles=1000000",
		"bench=SYNTH cores=8 tier=test faults=seed=7,gl.drop=1e-4",
	}
	for _, s := range specs {
		spec, err := ParseJobSpec(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		canon := spec.String()
		again, err := ParseJobSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v", canon, err)
		}
		if got := again.String(); got != canon {
			t.Errorf("%q: round-trip %q != %q", s, got, canon)
		}
	}
}

func TestParseJobSpecErrors(t *testing.T) {
	bad := map[string]string{
		"not-a-directive": "key=value",
		"bench=NOPE":      "",
		"barrier=XX":      "",
		"cores=0":         "cores",
		"cores=-1":        "cores",
		// Huge core counts fail fast, before any mesh is factored.
		"cores=9223372036854775807": "limit",
		"tier=huge":                 "",
		"threads=64 cores=16":       "exceeds",
		"max_cycles=0":              "max_cycles",
		"faults=zz.bogus=1":         "",
		"frobnicate=1":              "unknown directive",
	}
	for spec, frag := range bad {
		_, err := ParseJobSpec(spec)
		if err == nil {
			t.Errorf("%q: expected error", spec)
			continue
		}
		if frag != "" && !strings.Contains(err.Error(), frag) {
			t.Errorf("%q: error %q does not mention %q", spec, err, frag)
		}
	}
	// Grid-size limit.
	var b strings.Builder
	b.WriteString("bench=SYNTH cores=8 tier=test seed=")
	for i := 0; i <= MaxGridCells; i++ {
		if i > 0 {
			b.WriteByte('|')
		}
		fmtInt(&b, i)
	}
	if _, err := ParseJobSpec(b.String()); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("oversized grid: got %v, want limit error", err)
	}
}

// TestParseJobSpecRejectsLongAxisEarly: an axis of 40,000 distinct seeds
// (229 KB) is rejected while it is parsed, as soon as it holds more values
// than any grid fits, rather than after a deduplication whose cost grows
// with the square of its length (over 300 ms before); one seed repeated
// 40,000 times is still a one-cell grid. Most of the 0.6 ms left is
// strings.Fields scanning the spec, which the race detector slows to
// about 7 ms, so the 10 ms bound holds outside it.
func TestParseJobSpecRejectsLongAxisEarly(t *testing.T) {
	var b strings.Builder
	b.WriteString("bench=SYNTH cores=8 tier=test seed=")
	for i := 0; i < 40_000; i++ {
		if i > 0 {
			b.WriteByte('|')
		}
		fmtInt(&b, i)
	}
	best := time.Hour
	for i := 0; i < 3; i++ {
		start := time.Now()
		_, err := ParseJobSpec(b.String())
		best = min(best, time.Since(start))
		if err == nil || !strings.Contains(err.Error(), "distinct values") {
			t.Fatalf("40,000 seeds: got %v, want a distinct-values error", err)
		}
	}
	if best > 10*time.Millisecond && !raceEnabled {
		t.Errorf("40,000 seeds rejected in %v, want under 10ms", best)
	}
	spec, err := ParseJobSpec("bench=SYNTH cores=8 tier=test seed=" + strings.Repeat("7|", 40_000))
	if err != nil || len(spec.Cells()) != 1 {
		t.Fatalf("one seed repeated: err %v", err)
	}
}

// FuzzParseJobSpec feeds arbitrary request specs to the parser: no input
// may panic or hang it, a parsed spec's canonical form must parse back to
// itself, and no spec may expand past MaxGridCells.
func FuzzParseJobSpec(f *testing.F) {
	for _, s := range []string{
		"",
		"cores=9223372036854775807",
		"bench=SYNTH|KERN2 barrier=GL|CSW cores=16|32 seed=0|7 tier=test",
		"bench=SYNTH cores=8 tier=test seed=1|2 threads=4 max_cycles=1000000",
		"bench=SYNTH cores=8 tier=test faults=seed=7,gl.drop=1e-4",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseJobSpec(s)
		if err != nil {
			return
		}
		if n := len(spec.Cells()); n > MaxGridCells {
			t.Fatalf("%q expands to %d cells, limit %d", s, n, MaxGridCells)
		}
		canon := spec.String()
		again, err := ParseJobSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", canon, s, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("%q: round-trip %q != %q", s, got, canon)
		}
	})
}

func fmtInt(b *strings.Builder, v int) {
	if v >= 10 {
		fmtInt(b, v/10)
	}
	b.WriteByte(byte('0' + v%10))
}

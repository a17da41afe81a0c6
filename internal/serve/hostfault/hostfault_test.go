package hostfault

import (
	"strings"
	"sync"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"seed=1,exec.panic#2",
		"seed=7,exec.panic=0.25,spill.readfail#1,slow.ms=3",
		"seed=9,exec.fail#3,spill.writefail=0.5,spill.corrupt=1,queue.stall#1",
	}
	for _, in := range cases {
		p, err := ParsePlan(in)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", in, err)
		}
		if got := p.String(); got != in {
			t.Errorf("round trip %q -> %q", in, got)
		}
		p2, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", p.String(), err)
		}
		if *p2 != *p {
			t.Errorf("reparse of %q differs: %+v vs %+v", in, p2, p)
		}
	}
}

func TestParseEmptyAndErrors(t *testing.T) {
	if p, err := ParsePlan("  "); err != nil || p != nil {
		t.Fatalf("empty plan: %v %v", p, err)
	}
	for _, bad := range []string{
		"nope=1",
		"exec.panic=2.0",
		"exec.panic#0",
		"exec.panic#x",
		"bogus#3",
		"slow.ms=-1",
		"exec.panic",
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

func TestFirstSemantics(t *testing.T) {
	p, err := ParsePlan("seed=3,exec.panic#2")
	if err != nil {
		t.Fatal(err)
	}
	j := NewInjector(p)
	for i := 0; i < 2; i++ {
		if !j.Hit(ExecPanic, "cellA") {
			t.Fatalf("opportunity %d of cellA did not fire", i)
		}
	}
	// With no rate, later opportunities never fire.
	for i := 0; i < 50; i++ {
		if j.Hit(ExecPanic, "cellA") {
			t.Fatalf("opportunity %d fired past the first-2 window", i+2)
		}
	}
	// Another key has its own first-2 window.
	if !j.Hit(ExecPanic, "cellB") {
		t.Fatal("cellB's first opportunity did not fire")
	}
	if got := j.Fired(ExecPanic); got != 3 {
		t.Fatalf("fired ledger = %d, want 3", got)
	}
	if j.Hit(ExecFail, "cellA") {
		t.Fatal("unconfigured site fired")
	}
}

func TestRateDeterminismAndKeyIndependence(t *testing.T) {
	p, err := ParsePlan("seed=11,exec.fail=0.5")
	if err != nil {
		t.Fatal(err)
	}
	// Sequential reference: 40 opportunities for each of 4 keys.
	keys := []string{"a", "b", "c", "d"}
	ref := map[string][]bool{}
	j1 := NewInjector(p)
	for _, k := range keys {
		for i := 0; i < 40; i++ {
			ref[k] = append(ref[k], j1.Hit(ExecFail, k))
		}
	}
	any := false
	for _, k := range keys {
		for _, h := range ref[k] {
			any = any || h
		}
	}
	if !any {
		t.Fatal("rate 0.5 never fired in 160 opportunities")
	}
	// Concurrent interleaving across keys must reproduce each key's
	// schedule exactly.
	j2 := NewInjector(p)
	var wg sync.WaitGroup
	got := make([][]bool, len(keys))
	for i, k := range keys {
		i, k := i, k
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 40; n++ {
				got[i] = append(got[i], j2.Hit(ExecFail, k))
			}
		}()
	}
	wg.Wait()
	for i, k := range keys {
		for n := range ref[k] {
			if got[i][n] != ref[k][n] {
				t.Fatalf("key %s opportunity %d: concurrent %v != sequential %v", k, n, got[i][n], ref[k][n])
			}
		}
	}
	if j1.FiredTotal() != j2.FiredTotal() {
		t.Fatalf("fired totals differ: %d vs %d", j1.FiredTotal(), j2.FiredTotal())
	}
}

func TestNilInjector(t *testing.T) {
	var j *Injector
	if j.Hit(ExecPanic, "x") || j.FiredTotal() != 0 || j.SlowMillis() != 0 || j.FiredSummary() != "" {
		t.Fatal("nil injector is not inert")
	}
	if NewInjector(nil) != nil {
		t.Fatal("nil plan compiled to a non-nil injector")
	}
	if NewInjector(&Plan{Seed: 5}) != nil {
		t.Fatal("empty plan compiled to a non-nil injector")
	}
}

func TestCorruptIsDeterministicAndDamaging(t *testing.T) {
	in := []byte(`{"fingerprint":"abc","data":[1,2,3,4,5,6,7,8]}`)
	a := Corrupt(in)
	b := Corrupt(in)
	if string(a) != string(b) {
		t.Fatal("corruption is not deterministic")
	}
	if string(a) == string(in) {
		t.Fatal("corruption left bytes intact")
	}
	if len(Corrupt(nil)) == 0 {
		t.Fatal("corrupting empty bytes produced empty bytes")
	}
}

func TestAtomsRoundTrip(t *testing.T) {
	p, err := ParsePlan("seed=5,exec.panic#2,spill.readfail=0.25,slow.ms=2")
	if err != nil {
		t.Fatal(err)
	}
	atoms := p.Atoms()
	if len(atoms) != 2 {
		t.Fatalf("atoms = %v, want 2", atoms)
	}
	full, err := p.FromAtoms(atoms)
	if err != nil {
		t.Fatal(err)
	}
	if *full != *p {
		t.Fatalf("FromAtoms(all) = %+v, want %+v", full, p)
	}
	sub, err := p.FromAtoms(atoms[:1])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sub.String(), "exec.panic#2") || strings.Contains(sub.String(), "spill.readfail") {
		t.Fatalf("subset plan = %q", sub)
	}
	if sub.Seed != p.Seed || sub.SlowMillis != p.SlowMillis {
		t.Fatalf("subset lost carrier state: %+v", sub)
	}
}

func TestFiredSummary(t *testing.T) {
	p, _ := ParsePlan("seed=1,exec.panic#1,spill.readfail#2")
	j := NewInjector(p)
	j.Hit(ExecPanic, "k")
	j.Hit(SpillReadFail, "k")
	j.Hit(SpillReadFail, "k")
	if got := j.FiredSummary(); got != "exec.panic=1,spill.readfail=2" {
		t.Fatalf("summary = %q", got)
	}
	fired := j.FiredBySite()
	if fired["exec.panic"] != 1 || fired["spill.readfail"] != 2 {
		t.Fatalf("by-site = %v", fired)
	}
}

// FuzzParseHostPlan checks that every plan ParsePlan accepts round-trips:
// through String, and through FromAtoms(Atoms()), the minimizer's path.
func FuzzParseHostPlan(f *testing.F) {
	f.Add("seed=7,exec.panic#2,spill.readfail=0.5,slow.ms=1")
	f.Add("exec.fail#3")
	f.Add("seed=0,queue.stall=1,exec.slow=0x1p-3,spill.corrupt=0,exec.fail=0.25,exec.fail#1")
	f.Add(",, ,")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePlan(s)
		if err != nil || p == nil {
			return
		}
		back, err := ParsePlan(p.String())
		if err != nil || back == nil || *back != *p {
			t.Fatalf("String does not round-trip: %q -> %q -> %+v, %v", s, p.String(), back, err)
		}
		rebuilt, err := p.FromAtoms(p.Atoms())
		if err != nil || rebuilt == nil || *rebuilt != *p {
			t.Fatalf("FromAtoms(Atoms()) does not round-trip: %q -> %v -> %+v, %v", s, p.Atoms(), rebuilt, err)
		}
	})
}

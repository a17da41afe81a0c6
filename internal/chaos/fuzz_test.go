package chaos_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chaos"
	"repro/internal/hostchaos"
)

// FuzzParseReproducer feeds one text to both layers' ParseReproducer, the
// protocol corpus's and the host corpus's, which share the .repro codec.
// Neither may panic, and an entry either accepts must render (String) and
// parse back equal. The committed corpora seed the fuzzer.
func FuzzParseReproducer(f *testing.F) {
	for _, dir := range []string{"../../testdata/chaos-corpus", "../hostchaos/testdata/corpus"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.repro"))
		if err != nil || len(paths) == 0 {
			f.Fatalf("no seed corpus under %s (%v)", dir, err)
		}
		for _, p := range paths {
			raw, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(raw))
		}
	}
	f.Add("# a\n#\n#  b \nplan: seed=1\noracle: liveness/no-progress\ncores: 0\n")
	f.Add("plan: seed=1,exec.fail#3\noracle: identity/byte-divergence\nattempts: -2\n")
	f.Add("plan: seed=1\noracle: safety/x\nexpect: quarantine\n")
	f.Fuzz(func(t *testing.T, text string) {
		if r, err := chaos.ParseReproducer("f", text); err == nil {
			back, err := chaos.ParseReproducer("f", r.String())
			if err != nil || back != r {
				t.Fatalf("chaos entry does not round-trip: %+v -> %q -> %+v, %v", r, r.String(), back, err)
			}
		}
		if r, err := hostchaos.ParseReproducer("f", text); err == nil {
			back, err := hostchaos.ParseReproducer("f", r.String())
			if err != nil || back != r {
				t.Fatalf("hostchaos entry does not round-trip: %+v -> %q -> %+v, %v", r, r.String(), back, err)
			}
		}
	})
}

// Command glsim runs one benchmark on the simulated CMP and prints the full
// statistics report:
//
//	glsim -bench SYNTH -barrier GL -cores 32 -tier scaled
//
// Benchmarks: SYNTH, KERN2, KERN3, KERN6, UNSTR, OCEAN, EM3D.
// Barriers:   GL (the paper's G-line hardware barrier), DSW (combining
// tree), CSW (centralized lock-based).
//
// With -replicas N the same run executes N times on fresh systems across
// -jobs worker goroutines and glsim verifies all determinism fingerprints
// agree — the quick way to prove a configuration simulates reproducibly.
//
// -faults installs a deterministic fault-injection plan (and, unless the
// plan says recovery.off, the recovering barrier guard):
//
//	glsim -bench SYNTH -barrier GL -faults 'seed=7,gl.drop=1e-4,noc.corrupt=1e-4'
//
// The plan grammar is documented in internal/fault (ParsePlan).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	repro "repro"
	"repro/internal/barrier"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	benchName := flag.String("bench", "SYNTH", "benchmark name")
	barrierName := flag.String("barrier", "GL", "barrier implementation: GL, DSW or CSW")
	cores := flag.Int("cores", 32, "number of cores")
	threads := flag.Int("threads", 0, "threads (default: all cores)")
	tierName := flag.String("tier", "scaled", "input scale: test, scaled, repro or paper")
	maxCycles := flag.Uint64("max-cycles", 4_000_000_000, "simulation cycle budget")
	traceN := flag.Int("trace", 0, "print the last N span-timeline events after the run")
	heatmap := flag.Bool("heatmap", false, "print the per-tile link-utilization heatmap")
	jsonPath := flag.String("json", "", "write the full report as JSON to this file ('-' for stdout)")
	traceOut := flag.String("trace-out", "", "write the span timeline as Chrome trace-event JSON to this file (load at ui.perfetto.dev)")
	replicas := flag.Int("replicas", 1, "run N identical fresh-system replicas and verify fingerprints agree")
	jobs := flag.Int("jobs", 0, "parallel replica runs (0 = all CPUs)")
	faultsSpec := flag.String("faults", "", "fault-injection plan, e.g. 'seed=7,gl.drop=1e-4,@100-200:noc.linkdown:3' (see internal/fault)")
	flag.Parse()

	kind, err := barrier.ParseKind(*barrierName)
	if err != nil {
		fatal(err)
	}
	tier, err := workload.ParseTier(*tierName)
	if err != nil {
		fatal(err)
	}
	bench, err := workload.ByName(*benchName, tier)
	if err != nil {
		fatal(err)
	}
	if *threads == 0 {
		*threads = *cores
	}
	cfg := repro.DefaultConfig(*cores)
	if bench.Name() == "PIPE" {
		cfg.GLContexts = 2 // the pipeline runs two concurrent barrier groups
	}
	plan, err := fault.ParsePlan(*faultsSpec)
	if err != nil {
		fatal(err)
	}
	cfg.Faults = plan
	if *replicas > 1 {
		verifyReplicas(cfg, tier, *benchName, kind, *threads, *maxCycles, *replicas, *jobs)
		return
	}
	sys, err := repro.NewSystem(cfg)
	if err != nil {
		fatal(err)
	}
	// -trace-out and -trace share one timeline; the hang dump carries its
	// tail too. -trace alone keeps only the N events it prints.
	var tl *trace.Timeline
	switch {
	case *traceOut != "":
		tl = sys.AttachTimeline(1 << 20)
	case *traceN > 0:
		tl = sys.AttachTimeline(*traceN)
	}
	rep, err := workload.Run(sys, bench, kind, *threads, *maxCycles)
	if *traceOut != "" {
		// Write the timeline even when the run failed: a hang's trace is
		// exactly when you want to open Perfetto.
		if terr := writeTrace(*traceOut, tl, bench.Name(), string(kind), *cores); terr != nil {
			fatal(terr)
		}
	}
	if *traceN > 0 {
		tail := tl.Tail(*traceN)
		fmt.Fprintf(os.Stderr, "--- last %d timeline events ---\n", len(tail))
		for _, e := range tail {
			fmt.Fprintln(os.Stderr, e)
		}
	}
	if rep != nil && *jsonPath != "" {
		if jerr := writeJSON(*jsonPath, rep); jerr != nil {
			fatal(jerr)
		}
	}
	if err != nil {
		if rep != nil && rep.Hang != nil {
			fmt.Fprint(os.Stderr, rep.Hang)
		}
		fatal(err)
	}
	fmt.Printf("%s / %s / %d cores (%s tier)\n\n", bench.Name(), kind, *cores, tier)
	fmt.Print(rep)
	if *heatmap {
		fmt.Println("\nlink-utilization heatmap:")
		fmt.Print(sys.Prot.Mesh().Heatmap())
	}
}

// writeJSON renders the report to path, or stdout when path is "-".
func writeJSON(path string, rep *sim.Report) error {
	raw, err := rep.JSON()
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(raw)
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// writeTrace exports the span timeline as Chrome trace-event JSON, stamped
// with enough run metadata to identify the artifact later.
func writeTrace(path string, tl *trace.Timeline, bench, kind string, cores int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := tl.WriteChrome(f, map[string]string{
		"bench":   bench,
		"barrier": kind,
		"cores":   fmt.Sprint(cores),
	})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// verifyReplicas runs the benchmark n times on fresh systems through the
// sweep pool and checks every run's determinism fingerprint matches.
func verifyReplicas(cfg repro.Config, tier workload.Tier, benchName string, kind barrier.Kind, threads int, maxCycles uint64, n, jobs int) {
	specs := make([]sweep.Spec, n)
	for i := range specs {
		i := i
		specs[i] = sweep.Spec{
			Label: fmt.Sprintf("replica%d", i),
			Run: func() (*sim.Report, error) {
				// A fresh benchmark instance per replica: replicas must
				// share nothing, or the check proves too little.
				bench, err := workload.ByName(benchName, tier)
				if err != nil {
					return nil, err
				}
				sys, err := repro.NewSystem(cfg)
				if err != nil {
					return nil, err
				}
				return workload.Run(sys, bench, kind, threads, maxCycles)
			},
		}
	}
	results := sweep.Run(sweep.Options{Jobs: jobs}, specs)
	if err := sweep.Errs(results); err != nil {
		fatal(err)
	}
	summary, err := diagnoseReplicas(results)
	fmt.Print(summary)
	if err != nil {
		fatal(err)
	}
}

// diagnoseReplicas checks all replica fingerprints agree. On divergence
// the report names every minority replica with its fingerprint next to
// the majority's, so the output answers "which replica diverged, and from
// what" instead of stopping at the first mismatch.
func diagnoseReplicas(results []sweep.Result) (string, error) {
	var b strings.Builder
	counts := make(map[string]int)
	for i, r := range results {
		fmt.Fprintf(&b, "replica %2d: %s\n", i, r.Fingerprint())
		counts[r.Fingerprint()]++
	}
	if len(counts) == 1 {
		fmt.Fprintf(&b, "%d replicas agree: %s\n", len(results), results[0].Fingerprint())
		return b.String(), nil
	}
	// Majority fingerprint is the reference; ties break toward the
	// earliest replica so the diagnosis is deterministic.
	want := results[0].Fingerprint()
	for _, r := range results {
		if counts[r.Fingerprint()] > counts[want] {
			want = r.Fingerprint()
		}
	}
	var diverged []string
	for i, r := range results {
		if got := r.Fingerprint(); got != want {
			diverged = append(diverged, fmt.Sprintf("replica %d got %s, majority %s", i, got, want))
		}
	}
	fmt.Fprintf(&b, "%d of %d replicas diverge from majority fingerprint %s\n",
		len(diverged), len(results), want)
	return b.String(), fmt.Errorf("nondeterminism: %s", strings.Join(diverged, "; "))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "glsim:", err)
	os.Exit(1)
}

// Command reproduce regenerates every table and figure of the paper's
// evaluation:
//
//	reproduce [-tier repro] [-cores 32] [-jobs N] table1|table2|fig5|fig6|fig7|ablation|energy|faults|all
//
// Tiers: "test" (miniature, for goldens/CI), "scaled" (seconds), "repro"
// (paper data sizes, fewer iterations; the default), "paper" (exact
// Table 2 inputs; slow). Independent simulation runs fan out across -jobs
// worker goroutines (default: all CPUs) without changing any result —
// every run carries a determinism fingerprint, and sweeps collect results
// in submission order. A failed run renders as an error cell in its table
// instead of aborting the sweep; reproduce then exits non-zero after
// printing everything. Results and the paper's reference numbers are
// discussed in EXPERIMENTS.md.
//
// Beyond the paper's figures, `reproduce chaos` runs a seeded
// chaos campaign against the barrier protocol (see internal/chaos): it
// generates -budget randomized fault plans from -seed, checks every run
// against the protocol oracles selected by -oracles, and delta-debugs each
// oracle trip to a minimal reproducer (optionally saved with -save).
// `reproduce -corpus DIR chaos` skips exploration and replays a corpus of
// saved reproducers, failing if any pinned verdict drifted. Chaos is not
// part of "all": it explores failure space instead of reproducing a paper
// result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	repro "repro"
	"repro/internal/chaos"
	"repro/internal/fault"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	tierFlag := flag.String("tier", "repro", "input scale: test, scaled, repro or paper")
	cores := flag.Int("cores", 32, "number of cores (Table 1 baseline: 32)")
	jobs := flag.Int("jobs", 0, "parallel simulation runs (0 = all CPUs, 1 = sequential)")
	failFast := flag.Bool("fail-fast", false, "cancel runs that have not started after the first failure")
	timeout := flag.Duration("timeout", 0, "wall-clock deadline per simulation run (0 = unbounded)")
	csvDir := flag.String("csv", "", "also write each table as CSV into this directory")
	jsonPath := flag.String("json", "", "write every run's full report as one JSON document to this file ('-' for stdout)")
	artifacts := flag.String("artifacts", "", "write each sweep cell's report as an individual JSON file into this directory")
	traceOut := flag.String("trace-out", "", "write each run's span timeline as Chrome trace-event JSON into this directory (chaos: one per saved reproducer)")
	budget := flag.Int("budget", 64, "chaos: number of randomized fault plans to explore")
	seed := flag.Uint64("seed", 1, "chaos: campaign seed (same seed, same campaign)")
	oracles := flag.String("oracles", "all", "chaos: comma-separated oracle selection (safety,liveness,conservation or all)")
	corpusDir := flag.String("corpus", "", "chaos: replay saved reproducers from this directory instead of exploring")
	saveDir := flag.String("save", "", "chaos: write each finding's minimized reproducer into this directory")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: reproduce [flags] table1|table2|fig5|fig6|fig7|ablation|energy|faults|chaos|all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	tier, err := workload.ParseTier(*tierFlag)
	if err != nil {
		fatal(err)
	}
	if *traceOut != "" {
		if err := os.MkdirAll(*traceOut, 0o755); err != nil {
			fatal(err)
		}
		repro.SetTraceDir(*traceOut)
	}
	opt := repro.SweepOptions{Jobs: *jobs, FailFast: *failFast, ArtifactDir: *artifacts, Timeout: *timeout}
	what := flag.Arg(0)
	// jsonRuns collects every experiment's raw reports under stable
	// "experiment/cell" keys for the -json export.
	jsonRuns := map[string]*repro.Report{}
	record := func(key string, rep *repro.Report) {
		if rep != nil {
			jsonRuns[key] = rep
		}
	}
	emit := func(name string, t stats.Table) {
		fmt.Println(t)
		if *csvDir != "" {
			path := filepath.Join(*csvDir, name+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				fatal(err)
			}
		}
	}
	// Experiments render failed cells into their tables and return the
	// aggregated cell errors: report those after the table, keep going,
	// and exit non-zero at the end.
	failures := 0
	cellErrs := func(name string, err error) {
		if err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "reproduce: %s: %v\n", name, err)
		}
	}
	run := func(name string, fn func() error) {
		if what == name || what == "all" {
			if err := fn(); err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
		}
	}
	ran := what == "chaos"
	for _, name := range []string{"table1", "table2", "fig5", "fig6", "fig7", "ablation", "energy", "faults"} {
		if what == name || what == "all" {
			ran = true
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}

	run("table1", func() error {
		fmt.Println("== Table 1: CMP baseline configuration ==")
		emit("table1", repro.Table1(repro.DefaultConfig(*cores)))
		return nil
	})
	run("table2", func() error {
		fmt.Printf("== Table 2: benchmark configuration (tier=%s, %d cores, DSW baseline) ==\n", tier, *cores)
		rows, err := repro.Table2(tier, *cores, opt)
		emit("table2", repro.RenderTable2(rows))
		for _, r := range rows {
			record("table2/"+r.Name, r.Report)
		}
		cellErrs("table2", err)
		return nil
	})
	run("fig5", func() error {
		fmt.Printf("== Figure 5: average barrier latency (cycles) vs cores (tier=%s) ==\n", tier)
		points, err := repro.Fig5(tier, coreSweep(*cores), opt)
		emit("fig5", repro.RenderFig5(points))
		for _, p := range points {
			// Fixed series order: artifact recording must not depend on map
			// iteration order.
			for _, kind := range []repro.BarrierKind{repro.CSW, repro.DSW, repro.GL} {
				if rep, ok := p.Reports[kind]; ok {
					record(fmt.Sprintf("fig5/%dc/%s", p.Cores, kind), rep)
				}
			}
		}
		cellErrs("fig5", err)
		return nil
	})
	var cmps []repro.Comparison
	fig67 := func() error {
		if cmps != nil {
			return nil
		}
		var err error
		cmps, err = repro.Fig6And7(tier, *cores, opt)
		for _, c := range cmps {
			record("fig6_7/"+c.Name+"/DSW", c.DSW)
			record("fig6_7/"+c.Name+"/GL", c.GL)
		}
		cellErrs("fig6/7", err)
		return nil
	}
	run("fig6", func() error {
		if err := fig67(); err != nil {
			return err
		}
		fmt.Printf("== Figure 6: normalized execution time, DSW vs GL (tier=%s, %d cores) ==\n", tier, *cores)
		emit("fig6", repro.RenderFig6(cmps))
		tk, ta, _, _ := repro.Averages(cmps)
		fmt.Printf("AVG_K time reduction: %s (paper: 68%%)\nAVG_A time reduction: %s (paper: 21%%)\n\n",
			stats.Pct(tk), stats.Pct(ta))
		return nil
	})
	run("fig7", func() error {
		if err := fig67(); err != nil {
			return err
		}
		fmt.Printf("== Figure 7: normalized network traffic, DSW vs GL (tier=%s, %d cores) ==\n", tier, *cores)
		emit("fig7", repro.RenderFig7(cmps))
		_, _, fk, fa := repro.Averages(cmps)
		fmt.Printf("AVG_K traffic reduction: %s (paper: 74%%)\nAVG_A traffic reduction: %s (paper: 18%%)\n\n",
			stats.Pct(fk), stats.Pct(fa))
		return nil
	})
	run("energy", func() error {
		fmt.Printf("== Interconnect energy, DSW vs GL (tier=%s, %d cores) ==\n", tier, *cores)
		rows, err := repro.EnergyStudy(tier, *cores, opt)
		emit("energy", repro.RenderEnergy(rows))
		for _, r := range rows {
			record("energy/"+r.Name+"/DSW", r.DSW)
			record("energy/"+r.Name+"/GL", r.GL)
		}
		cellErrs("energy", err)
		return nil
	})
	run("faults", func() error {
		fmt.Printf("== Resilience: barrier degradation under injected G-line/NoC faults (tier=%s, %d cores) ==\n", tier, *cores)
		fmt.Println("(cycles/barrier per series; GL-raw runs the unguarded protocol, and a cell it wedges prints as an error: data, not a failure)")
		points, err := repro.FaultStudy(tier, *cores, repro.DefaultFaultRates, opt)
		barriers := workload.SyntheticFor(tier).Barriers(*cores)
		emit("faults", repro.RenderFaults(points, barriers))
		for _, p := range points {
			for _, series := range repro.FaultSeries() {
				if c, ok := p.Cells[series]; ok && c.Err == nil {
					record(fmt.Sprintf("faults/%g/%s", p.Rate, series), c.Report)
				}
			}
		}
		cellErrs("faults", err)
		return nil
	})
	run("ablation", func() error {
		iters := 200
		if tier == repro.TierTest {
			iters = 30
		}
		// Fixed 16-core (4x4, flat) geometry for the network-local
		// ablations: the paper's ideal 4-cycle dance needs a flat
		// network, and TDM shares one physical line set.
		const flatCores = 16
		fmt.Println("== Ablation: GL software call overhead (flat 4x4; ideal hardware = 4 cycles) ==")
		t, err := repro.AblationOverhead(flatCores, []uint64{0, 3, 6, 9, 18}, iters, opt)
		fmt.Println(t)
		cellErrs("ablation/overhead", err)
		fmt.Println("== Ablation: flat vs hierarchical G-line network (36 cores) ==")
		t, err = repro.AblationHierarchy(iters, opt)
		fmt.Println(t)
		cellErrs("ablation/hierarchy", err)
		fmt.Println("== Ablation: time-multiplexed barrier contexts (flat 4x4) ==")
		t, err = repro.AblationTDM(flatCores, []int{1, 2, 4, 8}, iters, opt)
		fmt.Println(t)
		cellErrs("ablation/tdm", err)
		fmt.Println("== Ablation: S-CSMA counting vs serialized signaling (7x7) ==")
		t, err = repro.AblationSCSMA(iters, opt)
		fmt.Println(t)
		cellErrs("ablation/scsma", err)
		fmt.Println("== Ablation: router pipeline depth (cycles/barrier) ==")
		t, err = repro.AblationRouterDepth(*cores, []uint64{1, 2, 3, 4}, iters, opt)
		fmt.Println(t)
		cellErrs("ablation/router", err)
		fmt.Println("== Ablation: coherence ownership transfer, 4-hop vs 3-hop ==")
		t, err = repro.AblationProtocol(*cores, iters, opt)
		fmt.Println(t)
		cellErrs("ablation/protocol", err)
		return nil
	})
	if what == "chaos" {
		opts := chaosOptions{
			budget:   *budget,
			seed:     *seed,
			oracles:  *oracles,
			corpus:   *corpusDir,
			save:     *saveDir,
			traceDir: *traceOut,
			sweep:    sweep.Options{Jobs: *jobs, FailFast: *failFast, Timeout: *timeout},
		}
		if err := runChaos(opts, record, cellErrs); err != nil {
			fatal(fmt.Errorf("chaos: %w", err))
		}
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, string(tier), *cores, what, jsonRuns); err != nil {
			fatal(err)
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "reproduce: %d experiment(s) had failed cells\n", failures)
		os.Exit(1)
	}
}

// chaosOptions carries the chaos subcommand's flag values.
type chaosOptions struct {
	budget   int
	seed     uint64
	oracles  string
	corpus   string
	save     string
	traceDir string
	sweep    sweep.Options
}

// runChaos drives the chaos subcommand: corpus replay when -corpus is set,
// a fresh exploration campaign otherwise. Findings and replayed runs are
// recorded for the -json export; verdict drifts and machinery failures go
// through cellErrs so reproduce exits non-zero.
func runChaos(opts chaosOptions, record func(string, *repro.Report), cellErrs func(string, error)) error {
	set, err := chaos.ParseOracles(opts.oracles)
	if err != nil {
		return err
	}
	if opts.corpus != "" {
		entries, err := chaos.LoadCorpus(opts.corpus)
		if err != nil {
			return err
		}
		if len(entries) == 0 {
			return fmt.Errorf("no reproducers under %s", opts.corpus)
		}
		fmt.Printf("== Chaos corpus replay: %d reproducer(s) from %s ==\n", len(entries), opts.corpus)
		for _, r := range entries {
			out, err := r.Replay()
			if err != nil {
				fmt.Printf("FAIL %-24s %s\n", r.Name, err)
				cellErrs("corpus/"+r.Name, err)
			} else {
				fmt.Printf("ok   %-24s trips %s (%s)\n", r.Name, r.Verdict.Key(), r.Plan)
			}
			record("chaos/corpus/"+r.Name, out.Report)
		}
		return nil
	}

	cfg := chaos.CampaignConfig{
		Seed:   opts.seed,
		Budget: opts.budget,
		Run:    chaos.RunConfig{Oracles: set},
		Sweep:  opts.sweep,
	}
	fmt.Printf("== Chaos campaign: %d plans from seed %d, oracles %s ==\n",
		opts.budget, opts.seed, set)
	rep, err := chaos.Campaign(cfg)
	cellErrs("campaign", err)
	if rep == nil {
		return nil
	}
	fmt.Printf("runs %d  clean %d  tripped %d  errors %d  findings %d\n",
		rep.Runs, rep.Clean, rep.Tripped, rep.Errors, len(rep.Findings))
	for i, f := range rep.Findings {
		fmt.Printf("\nfinding %d (plan %d): %s\n", i, f.Index, f.Verdict)
		fmt.Printf("  original:  %s\n", f.Plan)
		fmt.Printf("  minimized: %s  (%d site(s), %d shrink runs)\n",
			f.Minimized, f.MinimizedSites, f.Shrink.Runs)
		record(fmt.Sprintf("chaos/finding-%02d", i), f.Report)
		name := fmt.Sprintf("seed%d-plan%04d-%s-%s", rep.Seed, f.Index, f.Verdict.Oracle, f.Verdict.Kind)
		if opts.traceDir != "" {
			// Replay the minimized plan with a span timeline attached and
			// export the Chrome trace next to the finding's other artifacts —
			// the failing episode, phase by phase, loadable in Perfetto.
			plan, perr := fault.ParsePlan(f.Minimized)
			if perr != nil {
				cellErrs("trace/"+name, perr)
				continue
			}
			out := chaos.RunPlan(chaos.RunConfig{Oracles: set, TraceCapacity: 1 << 16}, plan)
			if out.Timeline != nil {
				tp := filepath.Join(opts.traceDir, name+".trace.json")
				if terr := writeChromeFile(tp, out.Timeline); terr != nil {
					cellErrs("trace/"+name, terr)
				} else {
					fmt.Printf("  trace:     %s\n", tp)
				}
			}
		}
		if opts.save == "" {
			continue
		}
		r := chaos.Reproducer{
			Name: name,
			Note: fmt.Sprintf("chaos campaign seed=%d plan=%d; minimized %d->%d atoms in %d runs",
				rep.Seed, f.Index, f.Shrink.FromAtoms, f.Shrink.ToAtoms, f.Shrink.Runs),
			Plan:    f.Minimized,
			Verdict: chaos.Violation{Oracle: f.Verdict.Oracle, Kind: f.Verdict.Kind},
		}
		path, err := chaos.WriteCorpus(opts.save, r)
		if err != nil {
			cellErrs("save/"+r.Name, err)
			continue
		}
		fmt.Printf("  saved:     %s\n", path)
	}
	return nil
}

// writeChromeFile exports one timeline as a Chrome trace-event JSON file.
func writeChromeFile(path string, tl *trace.Timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := tl.WriteChrome(f, nil)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// writeJSON exports every collected run — keyed "experiment/cell", each a
// full sim.Report document with metrics, NoC stats and fingerprint — to
// path, or stdout when path is "-".
func writeJSON(path, tier string, cores int, what string, runs map[string]*repro.Report) error {
	doc := struct {
		Tier       string                   `json:"tier"`
		Cores      int                      `json:"cores"`
		Experiment string                   `json:"experiment"`
		Runs       map[string]*repro.Report `json:"runs"`
	}{Tier: tier, Cores: cores, Experiment: what, Runs: runs}
	raw, err := json.MarshalIndent(doc, "", "  ")
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

// coreSweep returns the Figure 5 x-axis: powers of two up to max.
func coreSweep(max int) []int {
	var out []int
	for n := 1; n <= max; n *= 2 {
		out = append(out, n)
	}
	if len(out) == 0 || out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reproduce:", err)
	os.Exit(1)
}

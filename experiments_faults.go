package repro

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// Fault-injection study — degradation curves under G-line/NoC faults.
//
// The paper assumes perfect wires; this study asks what the dedicated
// barrier network costs in resilience. Each cell runs the synthetic
// barrier loop under a seeded composite fault plan (see FaultPlan) and
// measures the slowdown. Four series:
//
//	GL      G-line barrier behind the recovering guard (the resilient
//	        protocol: suppress, retry, software fallback).
//	GL-raw  the bare hardware with recovery disabled — the paper's
//	        protocol as published. Expected to wedge (watchdog error
//	        cell) once drop faults land inside barrier dances.
//	DSW     the combining-tree software barrier: no G-line exposure,
//	        but every barrier message rides the faulty NoC.
//	CSW     the centralized software barrier, ditto.

// faultSeries is the column order of the resilience study.
var faultSeries = []string{"GL", "GL-raw", "DSW", "CSW"}

// FaultSeries returns the study's series names in column order, so callers
// rendering per-series artifacts iterate deterministically instead of
// ranging over FaultPoint.Cells.
func FaultSeries() []string {
	return append([]string(nil), faultSeries...)
}

// DefaultFaultRates is the study's fault-rate ladder (per sample-point
// probability; 0 is the fault-free baseline).
var DefaultFaultRates = []float64{0, 1e-5, 1e-4, 1e-3, 1e-2}

// faultStudyTimeout is the guard's episode timeout for the study: far above
// any healthy dance (~13 cycles) yet small enough that a wedged episode
// retries quickly relative to the synthetic barrier period.
const faultStudyTimeout = 2_000

// rawStallLimit cuts unguarded wedges short: a healthy GL barrier never
// stays event-free for more than a compute phase, so 1M idle active cycles
// can only be a dead barrier (the default watchdog would wait 5M).
const rawStallLimit = 1_000_000

// FaultPlan is the composite plan the study injects at a given base rate:
// G-line drops at the full rate (the dominant transient on shared wires),
// spurious assertions and S-CSMA miscounts at a quarter of it, and NoC flit
// corruption plus transient link-down and dropped L1 watch wakeups stressing
// the software paths. The same plan (same seed) drives every series, so the
// software barriers face exactly the same NoC weather as the G-line ones.
func FaultPlan(rate float64) *fault.Plan {
	p := &fault.Plan{
		Seed:     0x5eed,
		Recovery: fault.Recovery{Timeout: faultStudyTimeout},
	}
	p.Rates[fault.GLDrop] = rate
	p.Rates[fault.GLSpurious] = rate / 4
	p.Rates[fault.SCSMAMiscount] = rate / 4
	p.Rates[fault.NoCCorrupt] = rate
	p.Rates[fault.NoCLinkDown] = rate / 4
	p.Rates[fault.WatchDrop] = rate
	return p
}

// FaultCell is one (rate, series) run of the study.
type FaultCell struct {
	Report *Report
	Err    error
}

// FaultPoint holds one fault rate's cells, keyed by series name.
type FaultPoint struct {
	Rate  float64
	Cells map[string]FaultCell
}

// FaultStudy sweeps the fault-rate ladder over all four series with the
// synthetic benchmark. All cells run through one sweep; a wedged unguarded
// run becomes an error cell, it does not abort the grid.
func FaultStudy(tier Tier, cores int, rates []float64, opt SweepOptions) ([]FaultPoint, error) {
	var specs []sweep.Spec
	for _, rate := range rates {
		for _, series := range faultSeries {
			specs = append(specs, sweep.Spec{
				Label: fmt.Sprintf("faults/%g/%s", rate, series),
				Run: func(ctx context.Context) (*sim.Report, error) {
					cfg := config.Default(cores)
					plan := FaultPlan(rate)
					kind := GL
					switch series {
					case "GL-raw":
						plan.Recovery.Disabled = true
					case "DSW":
						kind = DSW
					case "CSW":
						kind = CSW
					}
					cfg.Faults = plan
					sys, err := sim.New(cfg)
					if err != nil {
						return nil, err
					}
					if series == "GL-raw" {
						sys.Eng.StallLimit = rawStallLimit
					}
					w := workload.SyntheticFor(tier)
					return workload.Run(ctx, sys, w, kind, cores, defaultCycleBudget)
				},
			})
		}
	}
	results := sweep.Run(opt, specs)
	points := make([]FaultPoint, 0, len(rates))
	var errs []error
	i := 0
	for _, rate := range rates {
		p := FaultPoint{Rate: rate, Cells: map[string]FaultCell{}}
		for _, series := range faultSeries {
			res := results[i]
			i++
			p.Cells[series] = FaultCell{Report: res.Report, Err: res.Err}
			// A wedged GL-raw cell is the study's expected result (the
			// unguarded protocol deadlocking is the data point), so only
			// the resilient series' failures count as experiment errors.
			if res.Err != nil && series != "GL-raw" {
				errs = append(errs, fmt.Errorf("%s: %w", res.Label, res.Err))
			}
		}
		points = append(points, p)
	}
	return points, errors.Join(errs...)
}

// counter reads one metric counter from a cell's report (0 when absent).
func (c FaultCell) counter(name string) uint64 {
	if c.Report == nil {
		return 0
	}
	return c.Report.Metrics.Counters[name]
}

// RenderFaults formats the degradation table: cycles/barrier per series plus
// the guard's recovery work (retries, fallbacks), the guarded GL cell's
// injected-fault count, and the DSW cell's flit-hops (the software barrier
// pays for NoC faults in retransmitted traffic; SYNTH under GL sends none).
func RenderFaults(points []FaultPoint, barriers uint64) stats.Table {
	t := stats.Table{Header: []string{
		"FaultRate", "GL", "GL-raw", "DSW", "CSW",
		"GL retries", "GL fallbacks", "GL injected", "DSW flit-hops",
	}}
	cell := func(c FaultCell) string {
		if c.Err != nil {
			return stats.ErrCell(c.Err)
		}
		return fmt.Sprintf("%.1f", float64(c.Report.Cycles)/float64(barriers))
	}
	for _, p := range points {
		gl := p.Cells["GL"]
		row := []string{
			fmt.Sprintf("%g", p.Rate),
			cell(gl), cell(p.Cells["GL-raw"]), cell(p.Cells["DSW"]), cell(p.Cells["CSW"]),
		}
		if gl.Err != nil {
			row = append(row, "", "", "")
		} else {
			row = append(row,
				fmt.Sprintf("%d", gl.counter(core.MetricGLRetries)),
				fmt.Sprintf("%d", gl.counter(core.MetricGLFallbacks)),
				fmt.Sprintf("%d", gl.counter(fault.MetricInjected)))
		}
		if dsw := p.Cells["DSW"]; dsw.Err != nil {
			row = append(row, "")
		} else {
			row = append(row, fmt.Sprintf("%d", dsw.Report.FlitHops))
		}
		t.AddRow(row...)
	}
	return t
}

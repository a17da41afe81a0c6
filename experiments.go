package repro

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Every experiment in this file is a grid of independent simulation runs.
// The grids execute through internal/sweep: cells fan out across opt.Jobs
// worker goroutines, results return in deterministic submission order, and
// a failing cell is reported in its table row instead of aborting the
// sweep. Experiments return their rendered data together with the
// aggregated cell errors (nil when every cell succeeded).

// ---------------------------------------------------------------------------
// Table 1 — CMP baseline configuration.

// Table1 renders the simulated CMP's baseline configuration, matching the
// paper's Table 1.
func Table1(cfg Config) stats.Table {
	t := stats.Table{Header: []string{"Parameter", "Value"}}
	t.AddRow("Number of cores", fmt.Sprintf("%d", cfg.Cores))
	t.AddRow("Core", fmt.Sprintf("%.0fGHz, in-order %d-way model", cfg.ClockGHz, cfg.IssueWidth))
	t.AddRow("Cache line size", fmt.Sprintf("%d Bytes", cfg.LineSize))
	t.AddRow("L1 I/D-Cache", fmt.Sprintf("%dKB, %d-way, %d cycle", cfg.L1Size/1024, cfg.L1Ways, cfg.L1HitLatency))
	t.AddRow("L2 Cache (per core)", fmt.Sprintf("%dKB, %d-way, %d+%d cycles", cfg.L2SizePerCore/1024, cfg.L2Ways, cfg.L2TagLatency, cfg.L2DataLatency))
	t.AddRow("Memory access time", fmt.Sprintf("%d cycles", cfg.MemLatency))
	t.AddRow("Network configuration", fmt.Sprintf("2D-mesh (%dx%d)", cfg.MeshCols, cfg.MeshRows))
	t.AddRow("G-lines per barrier", fmt.Sprintf("%d", cfg.GLLinesPerBarrier()))
	t.AddRow("G-line transmitters/line", fmt.Sprintf("%d", cfg.GLMaxTransmitters))
	return t
}

// ---------------------------------------------------------------------------
// Table 2 — benchmark configuration: #barriers and barrier period.

// Table2Row is one benchmark's Table 2 entry, measured under the given
// baseline barrier. A failed run leaves the metrics zero and sets Err.
type Table2Row struct {
	Name     string
	Input    string
	Barriers uint64
	Period   float64
	Cycles   uint64

	// Report is the raw run result (nil when the run failed).
	Report *Report
	// Err is the run's failure, if any.
	Err error
}

// Table2 measures every benchmark's barrier count and period under the DSW
// baseline (the paper's best software barrier), at the given tier. The
// returned error aggregates failed cells; rows cover every benchmark
// either way.
func Table2(tier Tier, cores int, opt SweepOptions) ([]Table2Row, error) {
	benches := append([]Workload{workload.SyntheticFor(tier)}, workload.Suite(tier)...)
	specs := make([]sweep.Spec, len(benches))
	for i, w := range benches {
		specs[i] = benchSpec(cores, w, DSW)
	}
	results := sweep.Run(opt, specs)
	rows := make([]Table2Row, len(benches))
	for i, w := range benches {
		rows[i] = Table2Row{Name: w.Name(), Input: w.Input(), Err: results[i].Err}
		if results[i].Err != nil {
			continue
		}
		rep := results[i].Report
		rows[i].Report = rep
		rows[i].Barriers = rep.BarrierEpisodes
		rows[i].Period = rep.BarrierPeriod
		rows[i].Cycles = rep.Cycles
	}
	return rows, sweep.Errs(results)
}

// RenderTable2 formats Table 2 rows like the paper.
func RenderTable2(rows []Table2Row) stats.Table {
	t := stats.Table{Header: []string{"Benchmark", "Input Size", "#Barriers", "Barrier Period"}}
	for _, r := range rows {
		if r.Err != nil {
			t.AddRow(r.Name, r.Input, stats.ErrCell(r.Err), "")
			continue
		}
		t.AddRow(r.Name, r.Input, fmt.Sprintf("%d", r.Barriers), fmt.Sprintf("%.0f", r.Period))
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 5 — average barrier latency vs core count.

// fig5Kinds is the series order of the paper's Figure 5.
var fig5Kinds = []BarrierKind{CSW, DSW, GL}

// Fig5Point is the measured per-barrier latency of the three barrier
// implementations at one core count.
type Fig5Point struct {
	Cores   int
	Latency map[BarrierKind]float64

	// Reports holds the raw run results; Errs the per-kind failures.
	Reports map[BarrierKind]*Report
	Errs    map[BarrierKind]error
}

// Fig5 sweeps core counts with the synthetic benchmark, reproducing the
// paper's Figure 5 series for CSW, DSW and GL. All cells of the
// (cores × kind) grid run through one sweep.
func Fig5(tier Tier, coreCounts []int, opt SweepOptions) ([]Fig5Point, error) {
	var specs []sweep.Spec
	for _, n := range coreCounts {
		for _, kind := range fig5Kinds {
			specs = append(specs, benchSpec(n, workload.SyntheticFor(tier), kind))
		}
	}
	results := sweep.Run(opt, specs)
	points := make([]Fig5Point, 0, len(coreCounts))
	i := 0
	for _, n := range coreCounts {
		p := Fig5Point{
			Cores:   n,
			Latency: map[BarrierKind]float64{},
			Reports: map[BarrierKind]*Report{},
			Errs:    map[BarrierKind]error{},
		}
		barriers := workload.SyntheticFor(tier).Barriers(n)
		for _, kind := range fig5Kinds {
			res := results[i]
			i++
			if res.Err != nil {
				p.Errs[kind] = res.Err
				continue
			}
			p.Reports[kind] = res.Report
			p.Latency[kind] = float64(res.Report.Cycles) / float64(barriers)
		}
		points = append(points, p)
	}
	return points, sweep.Errs(results)
}

// RenderFig5 formats the Figure 5 series.
func RenderFig5(points []Fig5Point) stats.Table {
	t := stats.Table{Header: []string{"Cores", "CSW", "DSW", "GL"}}
	for _, p := range points {
		cells := []string{fmt.Sprintf("%d", p.Cores)}
		for _, kind := range fig5Kinds {
			if err := p.Errs[kind]; err != nil {
				cells = append(cells, stats.ErrCell(err))
				continue
			}
			cells = append(cells, fmt.Sprintf("%.1f", p.Latency[kind]))
		}
		t.AddRow(cells...)
	}
	return t
}

// ---------------------------------------------------------------------------
// Figures 6 and 7 — normalized execution time and network traffic, DSW vs GL.

// Comparison holds one benchmark's DSW-vs-GL pair and the derived
// normalized metrics of Figures 6 and 7. A failed run on either side
// leaves the metrics zero and sets Err.
type Comparison struct {
	Name string
	DSW  *Report
	GL   *Report
	Err  error

	// NormTime[kind][region]: execution-time share, normalized so the DSW
	// total is 1.0 (Figure 6's stacked bars).
	NormTime map[BarrierKind][stats.NumRegions]float64
	// NormTraffic[kind][class]: message share, normalized so the DSW
	// total is 1.0 (Figure 7's stacked bars).
	NormTraffic map[BarrierKind][stats.NumMsgClasses]float64

	// TimeReduction and TrafficReduction are GL's relative savings.
	TimeReduction    float64
	TrafficReduction float64
}

// newComparison derives the Figure 6/7 normalized metrics from a finished
// DSW/GL pair.
func newComparison(name string, dsw, gl *Report) Comparison {
	cmp := Comparison{Name: name, DSW: dsw, GL: gl}
	// Iterate the kinds in fixed order, not over a map literal: ranging a
	// map here is needless nondeterminism (and the glvet detrand analyzer's
	// first scalp).
	kindReports := []struct {
		kind BarrierKind
		rep  *Report
	}{{DSW, dsw}, {GL, gl}}
	cmp.NormTime = map[BarrierKind][stats.NumRegions]float64{}
	base := float64(dsw.Breakdown.Total())
	for _, kr := range kindReports {
		var norm [stats.NumRegions]float64
		for r := range kr.rep.Breakdown {
			norm[r] = float64(kr.rep.Breakdown[r]) / base
		}
		cmp.NormTime[kr.kind] = norm
	}
	cmp.NormTraffic = map[BarrierKind][stats.NumMsgClasses]float64{}
	tbase := float64(dsw.Traffic.TotalMessages())
	for _, kr := range kindReports {
		var norm [stats.NumMsgClasses]float64
		for c := range kr.rep.Traffic.Messages {
			norm[c] = float64(kr.rep.Traffic.Messages[c]) / tbase
		}
		cmp.NormTraffic[kr.kind] = norm
	}
	cmp.TimeReduction = stats.Reduction(float64(dsw.Cycles), float64(gl.Cycles))
	cmp.TrafficReduction = stats.Reduction(float64(dsw.Traffic.TotalMessages()), float64(gl.Traffic.TotalMessages()))
	return cmp
}

// compareAll runs every benchmark under DSW and GL as one flat sweep and
// assembles the per-benchmark comparisons.
func compareAll(ws []Workload, cores int, opt SweepOptions) ([]Comparison, error) {
	specs := make([]sweep.Spec, 0, 2*len(ws))
	for _, w := range ws {
		specs = append(specs, benchSpec(cores, w, DSW), benchSpec(cores, w, GL))
	}
	results := sweep.Run(opt, specs)
	cmps := make([]Comparison, len(ws))
	for i, w := range ws {
		d, g := results[2*i], results[2*i+1]
		if err := errors.Join(d.Err, g.Err); err != nil {
			cmps[i] = Comparison{Name: w.Name(), Err: err}
			continue
		}
		cmps[i] = newComparison(w.Name(), d.Report, g.Report)
	}
	return cmps, sweep.Errs(results)
}

// Compare runs one benchmark under DSW and GL on fresh systems and derives
// the Figure 6/7 normalized metrics.
func Compare(w Workload, cores int, opt SweepOptions) (Comparison, error) {
	cmps, err := compareAll([]Workload{w}, cores, opt)
	return cmps[0], err
}

// Fig6And7 runs the full DSW-vs-GL comparison over the tier's suite at the
// given core count (the paper uses 32), producing both figures' data.
func Fig6And7(tier Tier, cores int, opt SweepOptions) ([]Comparison, error) {
	return compareAll(workload.Suite(tier), cores, opt)
}

// kernelNames identifies the Livermore kernels for the AVG_K/AVG_A split.
var kernelNames = map[string]bool{"KERN2": true, "KERN3": true, "KERN6": true}

// Averages returns the mean time and traffic reductions for the kernels
// (the paper's AVG_K) and the applications (AVG_A), skipping failed
// comparisons.
func Averages(cmps []Comparison) (timeK, timeA, trafK, trafA float64) {
	var nk, na int
	for _, c := range cmps {
		if c.Err != nil {
			continue
		}
		if kernelNames[c.Name] {
			timeK += c.TimeReduction
			trafK += c.TrafficReduction
			nk++
		} else {
			timeA += c.TimeReduction
			trafA += c.TrafficReduction
			na++
		}
	}
	if nk > 0 {
		timeK /= float64(nk)
		trafK /= float64(nk)
	}
	if na > 0 {
		timeA /= float64(na)
		trafA /= float64(na)
	}
	return timeK, timeA, trafK, trafA
}

// RenderFig6 formats the normalized execution-time breakdown.
func RenderFig6(cmps []Comparison) stats.Table {
	t := stats.Table{Header: []string{"Benchmark", "Barrier", "Busy", "Read", "Write", "Lock", "Total", "Reduction"}}
	for _, c := range cmps {
		if c.Err != nil {
			t.AddRow(c.Name, stats.ErrCell(c.Err), "", "", "", "", "", "")
			continue
		}
		for _, kind := range []BarrierKind{DSW, GL} {
			n := c.NormTime[kind]
			total := 0.0
			for _, v := range n {
				total += v
			}
			red := ""
			if kind == GL {
				red = stats.Pct(c.TimeReduction)
			}
			t.AddRow(fmt.Sprintf("%s/%s", c.Name, kind),
				fmt.Sprintf("%.3f", n[stats.RegionBarrier]),
				fmt.Sprintf("%.3f", n[stats.RegionBusy]),
				fmt.Sprintf("%.3f", n[stats.RegionRead]),
				fmt.Sprintf("%.3f", n[stats.RegionWrite]),
				fmt.Sprintf("%.3f", n[stats.RegionLock]),
				fmt.Sprintf("%.3f", total), red)
		}
	}
	return t
}

// RenderFig7 formats the normalized traffic breakdown.
func RenderFig7(cmps []Comparison) stats.Table {
	t := stats.Table{Header: []string{"Benchmark", "Request", "Reply", "Coherence", "Total", "Reduction"}}
	for _, c := range cmps {
		if c.Err != nil {
			t.AddRow(c.Name, stats.ErrCell(c.Err), "", "", "", "")
			continue
		}
		for _, kind := range []BarrierKind{DSW, GL} {
			n := c.NormTraffic[kind]
			total := n[stats.ClassRequest] + n[stats.ClassReply] + n[stats.ClassCoherence]
			red := ""
			if kind == GL {
				red = stats.Pct(c.TrafficReduction)
			}
			t.AddRow(fmt.Sprintf("%s/%s", c.Name, kind),
				fmt.Sprintf("%.3f", n[stats.ClassRequest]),
				fmt.Sprintf("%.3f", n[stats.ClassReply]),
				fmt.Sprintf("%.3f", n[stats.ClassCoherence]),
				fmt.Sprintf("%.3f", total), red)
		}
	}
	return t
}

// ---------------------------------------------------------------------------
// Ablations — design-choice studies beyond the paper's figures.

// synthCell is the sweep cell of one synthetic-loop ablation run on every
// core of a fresh system built from cfg. When net is non-nil, a G-line
// network built from it replaces the system's own.
func synthCell(label string, cfg config.Config, net *core.NetworkConfig, kind BarrierKind, iters int) sweep.Spec {
	return sweep.Spec{Label: label, Run: func(ctx context.Context) (*Report, error) {
		sys, err := sim.New(cfg)
		if err != nil {
			return nil, err
		}
		if net != nil {
			gl, err := core.NewNetwork(*net)
			if err != nil {
				return nil, err
			}
			sys.ReplaceGL(gl)
		}
		return workload.Run(ctx, sys, &workload.Synthetic{Iters: iters}, kind, cfg.Cores, defaultCycleBudget)
	}}
}

// cellLatency renders one ablation cell: cycles/barrier, or the error.
func cellLatency(res sweep.Result, barriers uint64) string {
	if res.Err != nil {
		return stats.ErrCell(res.Err)
	}
	return fmt.Sprintf("%.1f", float64(res.Report.Cycles)/float64(barriers))
}

// AblationOverhead sweeps the GL software call overhead, isolating the
// hardware's ideal 4-cycle latency from the library cost (the paper's 13
// vs 4 discussion in Section 4.3.1).
func AblationOverhead(cores int, overheads []uint64, iters int, opt SweepOptions) (stats.Table, error) {
	t := stats.Table{Header: []string{"CallOverhead", "cycles/barrier"}}
	specs := make([]sweep.Spec, len(overheads))
	for i, ov := range overheads {
		cfg := config.Default(cores)
		cfg.GLCallOverhead = ov
		specs[i] = synthCell(fmt.Sprintf("overhead/%d", ov), cfg, nil, GL, iters)
	}
	results := sweep.Run(opt, specs)
	barriers := (&workload.Synthetic{Iters: iters}).Barriers(cores)
	for i, ov := range overheads {
		t.AddRow(fmt.Sprintf("%d", ov), cellLatency(results[i], barriers))
	}
	return t, sweep.Errs(results)
}

// AblationHierarchy compares the flat network against forced clustering on
// a mesh that fits both, quantifying the clustering latency cost (the
// future-work scaling scheme).
func AblationHierarchy(iters int, opt SweepOptions) (stats.Table, error) {
	t := stats.Table{Header: []string{"Network", "cycles/barrier"}}
	// 6x6 fits flat (36 cores, 5 transmitters per line needed <= 6).
	cfg := config.Default(36)
	if cfg.MeshCols != 6 || cfg.MeshRows != 6 {
		return t, fmt.Errorf("expected 6x6 mesh for 36 cores, got %dx%d", cfg.MeshCols, cfg.MeshRows)
	}
	specs := []sweep.Spec{
		synthCell("hierarchy/flat", cfg, nil, GL, iters),
		synthCell("hierarchy/clustered", cfg, &core.NetworkConfig{
			Cols: 6, Rows: 6,
			MaxTransmitters: cfg.GLMaxTransmitters,
			Contexts:        1,
			Span:            3,
		}, GL, iters),
	}
	results := sweep.Run(opt, specs)
	barriers := (&workload.Synthetic{Iters: iters}).Barriers(36)
	t.AddRow("flat 6x6", cellLatency(results[0], barriers))
	t.AddRow("2x2 clusters of 3x3", cellLatency(results[1], barriers))
	return t, sweep.Errs(results)
}

// AblationTDM measures time-multiplexed barrier contexts: one physical set
// of G-lines shared by k contexts, with the synthetic loop running on
// context 0. Latency grows with the TDM period. The mesh must fit a flat
// network (TDM shares one physical line set).
func AblationTDM(cores int, contexts []int, iters int, opt SweepOptions) (stats.Table, error) {
	t := stats.Table{Header: []string{"TDM contexts", "cycles/barrier"}}
	cfg := config.Default(cores)
	if !cfg.GLFitsFlat() {
		return t, fmt.Errorf("TDM ablation needs a flat-capable mesh; %dx%d exceeds the limit (use <=49 cores)", cfg.MeshCols, cfg.MeshRows)
	}
	specs := make([]sweep.Spec, len(contexts))
	for i, k := range contexts {
		specs[i] = synthCell(fmt.Sprintf("tdm/%d", k), cfg, &core.NetworkConfig{
			Cols: cfg.MeshCols, Rows: cfg.MeshRows,
			MaxTransmitters: cfg.GLMaxTransmitters,
			Contexts:        k,
			Mux:             core.MuxTime,
		}, GL, iters)
	}
	results := sweep.Run(opt, specs)
	barriers := (&workload.Synthetic{Iters: iters}).Barriers(cores)
	for i, k := range contexts {
		t.AddRow(fmt.Sprintf("%d", k), cellLatency(results[i], barriers))
	}
	return t, sweep.Errs(results)
}

// AblationSCSMA quantifies the paper's key sensing technique: with S-CSMA
// a master counts all simultaneous arrivals in one cycle; without it
// (serialized receiver) arrivals queue at the masters.
func AblationSCSMA(iters int, opt SweepOptions) (stats.Table, error) {
	t := stats.Table{Header: []string{"Signaling", "cycles/barrier"}}
	cfg := config.Default(49) // 7x7: the largest flat mesh, 6 slaves/line
	modes := []bool{false, true}
	specs := make([]sweep.Spec, len(modes))
	for i, serial := range modes {
		specs[i] = synthCell(fmt.Sprintf("scsma/serial=%v", serial), cfg, &core.NetworkConfig{
			Cols: cfg.MeshCols, Rows: cfg.MeshRows,
			MaxTransmitters: cfg.GLMaxTransmitters,
			Contexts:        1,
			SerialSignaling: serial,
		}, GL, iters)
	}
	results := sweep.Run(opt, specs)
	barriers := (&workload.Synthetic{Iters: iters}).Barriers(49)
	labels := []string{"S-CSMA (paper)", "serialized receiver"}
	for i := range modes {
		t.AddRow(labels[i], cellLatency(results[i], barriers))
	}
	return t, sweep.Errs(results)
}

// EnergyRow is one benchmark's interconnect-energy comparison (the paper's
// future-work power study): total NoC + G-line energy under DSW vs GL.
type EnergyRow struct {
	Name            string
	DSWPJ, GLPJ     float64
	GLofWhichLines  float64
	EnergyReduction float64

	// DSW and GL are the raw run results; Err the pair's failure, if any.
	DSW, GL *Report
	Err     error
}

// EnergyStudy measures interconnect energy for every benchmark of the
// tier's suite under both barrier implementations.
func EnergyStudy(tier Tier, cores int, opt SweepOptions) ([]EnergyRow, error) {
	cmps, err := compareAll(workload.Suite(tier), cores, opt)
	rows := make([]EnergyRow, len(cmps))
	for i, c := range cmps {
		rows[i] = EnergyRow{Name: c.Name, Err: c.Err}
		if c.Err != nil {
			continue
		}
		rows[i].DSW, rows[i].GL = c.DSW, c.GL
		rows[i].DSWPJ = c.DSW.Energy.Total()
		rows[i].GLPJ = c.GL.Energy.Total()
		rows[i].GLofWhichLines = c.GL.Energy.GLinePJ
		rows[i].EnergyReduction = stats.Reduction(c.DSW.Energy.Total(), c.GL.Energy.Total())
	}
	return rows, err
}

// RenderEnergy formats the energy study.
func RenderEnergy(rows []EnergyRow) stats.Table {
	t := stats.Table{Header: []string{"Benchmark", "DSW (nJ)", "GL (nJ)", "G-line part (nJ)", "Reduction"}}
	for _, r := range rows {
		if r.Err != nil {
			t.AddRow(r.Name, stats.ErrCell(r.Err), "", "", "")
			continue
		}
		t.AddRow(r.Name,
			fmt.Sprintf("%.1f", r.DSWPJ/1000),
			fmt.Sprintf("%.1f", r.GLPJ/1000),
			fmt.Sprintf("%.4f", r.GLofWhichLines/1000),
			stats.Pct(r.EnergyReduction))
	}
	return t
}

// AblationRouterDepth sweeps the mesh router pipeline depth: software
// barriers ride the data NoC and slow down with it, while the dedicated
// G-line barrier is untouched — the core argument for a dedicated network.
func AblationRouterDepth(cores int, depths []uint64, iters int, opt SweepOptions) (stats.Table, error) {
	t := stats.Table{Header: []string{"RouterStages", "DSW", "GL"}}
	kinds := []BarrierKind{DSW, GL}
	var specs []sweep.Spec
	for _, d := range depths {
		cfg := config.Default(cores)
		cfg.RouterLatency = d
		for _, kind := range kinds {
			specs = append(specs, synthCell(fmt.Sprintf("router/%d/%s", d, kind), cfg, nil, kind, iters))
		}
	}
	results := sweep.Run(opt, specs)
	barriers := (&workload.Synthetic{Iters: iters}).Barriers(cores)
	for i, d := range depths {
		t.AddRow(fmt.Sprintf("%d", d),
			cellLatency(results[2*i], barriers),
			cellLatency(results[2*i+1], barriers))
	}
	return t, sweep.Errs(results)
}

// AblationProtocol compares the calibrated 4-hop home-relay ownership
// transfer against SGI-Origin-style 3-hop direct forwarding on the access
// pattern it targets: a dirty line migrating between two distant writers
// (measured at the protocol level, back-to-back transfers with nothing
// else in flight). Barrier algorithms barely exercise owner-to-owner
// writes — their hand-offs are read-forwards and upgrades — so this is a
// substrate ablation, not a barrier result.
func AblationProtocol(cores int, transfers int, opt SweepOptions) (stats.Table, error) {
	t := stats.Table{Header: []string{"Ownership transfer", "cycles/transfer"}}
	modes := []bool{false, true}
	specs := make([]sweep.Spec, len(modes))
	for i, threeHop := range modes {
		specs[i] = sweep.Spec{
			Label: fmt.Sprintf("protocol/threeHop=%v", threeHop),
			Run: func(ctx context.Context) (*sim.Report, error) {
				cfg := config.Default(cores)
				cfg.ThreeHopOwnership = threeHop
				sys, err := sim.New(cfg)
				if err != nil {
					return nil, err
				}
				// Writers at opposite mesh corners, with the line homed
				// midway so both protocols pay full-distance indirections.
				a, b := 0, cores-1
				addr := sys.Alloc.Line()
				for sys.Prot.HomeOf(addr) != cores/2 {
					addr = sys.Alloc.Line()
				}
				left := transfers
				var ping func(tile int)
				ping = func(tile int) {
					if left == 0 {
						return
					}
					left--
					next := a + b - tile
					sys.Prot.L1(tile).Access(coherence.Write, addr, 0, uint64(left), true,
						func(uint64) { ping(next) })
				}
				ping(a)
				sys.Eng.Stop = ctx.Err
				end, err := sys.Eng.Run(uint64(transfers)*100_000, func() bool { return left == 0 })
				if err != nil {
					return nil, err
				}
				return &sim.Report{Cycles: end, Traffic: sys.Prot.Traffic()}, nil
			},
		}
	}
	results := sweep.Run(opt, specs)
	labels := []string{"4-hop via home (default)", "3-hop direct"}
	for i := range modes {
		t.AddRow(labels[i], cellLatency(results[i], uint64(transfers)))
	}
	return t, sweep.Errs(results)
}

package serve

import (
	"context"

	"repro/internal/sim"
	"repro/internal/workload"
)

// RunCell is the default CellRunner: a fresh system per cell, the workload
// run to completion. The simulator core is not interruptible mid-run —
// cancellation is handled one level up, where internal/sweep abandons the
// goroutine and the eventual result still lands in the cache (work already
// paid for is never discarded).
func RunCell(ctx context.Context, c Cell) (*sim.Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	in := c.Input()
	bench, err := workload.ByName(c.Bench, c.Tier)
	if err != nil {
		return nil, err
	}
	sys, err := sim.New(in.Config)
	if err != nil {
		return nil, err
	}
	return workload.Run(sys, bench, c.Barrier, c.Threads, c.MaxCycles)
}

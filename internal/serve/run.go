package serve

import (
	"context"

	"repro/internal/sim"
	"repro/internal/workload"
)

// RunCell is the default CellRunner: a fresh system per cell, the workload
// run to completion or until ctx ends, which stops the simulation.
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
	return workload.Run(ctx, sys, bench, c.Barrier, c.Threads, c.MaxCycles)
}

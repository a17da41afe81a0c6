// Package config defines the configuration of the simulated tiled CMP.
//
// The defaults reproduce Table 1 of the paper: a 32-core CMP with in-order
// 2-way cores, 32 KB 4-way L1 caches, a shared distributed L2 of 256 KB per
// core with 6+2-cycle access, a 400-cycle memory, and a 2D-mesh network.
package config

import (
	"fmt"

	"repro/internal/fault"
)

// Config holds every tunable parameter of the simulated system.
type Config struct {
	// Cores is the number of tiles; it must equal MeshCols*MeshRows.
	Cores int
	// MeshCols and MeshRows give the 2D-mesh geometry.
	MeshCols, MeshRows int
	// IssueWidth is the in-order issue width of each core (Table 1: 2-way).
	IssueWidth int
	// ClockGHz is only used for reporting; all simulation is in cycles.
	ClockGHz float64

	// LineSize is the cache line size in bytes (Table 1: 64).
	LineSize int
	// L1Size and L1Ways configure the private L1 data cache (32 KB, 4-way).
	L1Size, L1Ways int
	// L1HitLatency is the L1 access time in cycles (Table 1: 1).
	L1HitLatency uint64
	// L2SizePerCore and L2Ways configure each shared L2 bank (256 KB, 4-way).
	L2SizePerCore, L2Ways int
	// L2TagLatency and L2DataLatency model the 6+2-cycle L2 access.
	L2TagLatency, L2DataLatency uint64
	// MemLatency is the off-chip memory access time (Table 1: 400).
	MemLatency uint64

	// FlitBytes is the width of one flit; a data message carries a line.
	FlitBytes int
	// RouterLatency is the per-hop router pipeline delay in cycles
	// (2008-2010 era mesh routers are 3-4 stage pipelines; the EVC work
	// the paper builds on assumes similar baselines).
	RouterLatency uint64
	// LinkLatency is the per-hop wire delay in cycles.
	LinkLatency uint64

	// GLMaxTransmitters is the electrical limit of transmitters per G-line
	// (the paper, following Krishna et al., assumes 6, capping a flat
	// network at 7x7 cores).
	GLMaxTransmitters int
	// GLCallOverhead models the software cost of entering/leaving the
	// barrier library. The paper measures 13 cycles per barrier instead of
	// the ideal 4; the difference (9 cycles) is this overhead.
	GLCallOverhead uint64
	// GLContexts is the number of independent barrier contexts the G-line
	// network supports (space multiplexing; 1 reproduces the paper).
	GLContexts int

	// ThreeHopOwnership enables direct owner-to-requester data transfer on
	// ownership changes (SGI-Origin-style 3-hop) instead of relaying the
	// line through the home bank (4-hop, the calibrated default).
	ThreeHopOwnership bool

	// WorkloadSeed perturbs the deterministic generators that build the
	// randomized benchmark inputs (EM3D's bipartite graph, UNSTRUCTURED's
	// mesh): each benchmark combines it with its own fixed base seed. Zero —
	// the default — reproduces the published inputs bit-identically; any
	// other value yields a different but equally deterministic instance, for
	// input-sensitivity studies.
	WorkloadSeed int64

	// Faults, when non-nil, enables deterministic fault injection driven by
	// the plan's seed and schedule, and (unless the plan disables it) wraps
	// the G-line network in the recovering barrier protocol. Nil runs are
	// bit-identical to builds without the fault subsystem.
	Faults *fault.Plan
}

// MaxCores is the largest core count a configuration may have: the
// directory keeps its sharers in a 64-bit set.
const MaxCores = 64

// Default32 returns the paper's Table 1 baseline: a 32-core, 8x4-mesh CMP.
func Default32() Config {
	c := Default(32)
	return c
}

// Default returns a Table 1 configuration scaled to n cores. n must have an
// integer 2D factorization; Default picks the squarest mesh with cols>=rows.
func Default(n int) Config {
	cols, rows := SquarestMesh(n)
	return Config{
		Cores:             n,
		MeshCols:          cols,
		MeshRows:          rows,
		IssueWidth:        2,
		ClockGHz:          3.0,
		LineSize:          64,
		L1Size:            32 * 1024,
		L1Ways:            4,
		L1HitLatency:      1,
		L2SizePerCore:     256 * 1024,
		L2Ways:            4,
		L2TagLatency:      6,
		L2DataLatency:     2,
		MemLatency:        400,
		FlitBytes:         8,
		RouterLatency:     3,
		LinkLatency:       1,
		GLMaxTransmitters: 6,
		GLCallOverhead:    9,
		GLContexts:        1,
	}
}

// SquarestMesh returns the factorization cols*rows = n with cols >= rows and
// cols-rows minimal. For primes this degenerates to n x 1.
func SquarestMesh(n int) (cols, rows int) {
	if n <= 0 {
		return 0, 0
	}
	rows = 1
	for r := 2; r <= n/r; r++ {
		if n%r == 0 {
			rows = r
		}
	}
	return n / rows, rows
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("config: Cores must be positive, got %d", c.Cores)
	}
	if c.MeshCols*c.MeshRows != c.Cores {
		return fmt.Errorf("config: mesh %dx%d does not cover %d cores", c.MeshCols, c.MeshRows, c.Cores)
	}
	if c.Cores > MaxCores {
		return fmt.Errorf("config: at most %d cores supported (directory sharer bitset), got %d", MaxCores, c.Cores)
	}
	if c.IssueWidth <= 0 {
		return fmt.Errorf("config: IssueWidth must be positive, got %d", c.IssueWidth)
	}
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("config: LineSize must be a positive power of two, got %d", c.LineSize)
	}
	for _, p := range []struct {
		name       string
		size, ways int
	}{{"L1", c.L1Size, c.L1Ways}, {"L2", c.L2SizePerCore, c.L2Ways}} {
		if p.size <= 0 || p.ways <= 0 {
			return fmt.Errorf("config: %s size/ways must be positive", p.name)
		}
		if p.size%(p.ways*c.LineSize) != 0 {
			return fmt.Errorf("config: %s size %d not divisible by ways*line (%d*%d)", p.name, p.size, p.ways, c.LineSize)
		}
		sets := p.size / (p.ways * c.LineSize)
		if sets&(sets-1) != 0 {
			return fmt.Errorf("config: %s set count %d must be a power of two", p.name, sets)
		}
	}
	if c.FlitBytes <= 0 || c.LineSize%c.FlitBytes != 0 {
		return fmt.Errorf("config: FlitBytes %d must be positive and divide LineSize %d", c.FlitBytes, c.LineSize)
	}
	if c.GLMaxTransmitters < 1 {
		return fmt.Errorf("config: GLMaxTransmitters must be >=1, got %d", c.GLMaxTransmitters)
	}
	if c.GLContexts < 0 {
		return fmt.Errorf("config: GLContexts must be >=0, got %d", c.GLContexts)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// DataFlits returns the number of flits in a message carrying one cache line
// plus one header flit.
func (c Config) DataFlits() int { return 1 + c.LineSize/c.FlitBytes }

// NodeOf returns the mesh coordinates of a core.
func (c Config) NodeOf(core int) (col, row int) {
	return core % c.MeshCols, core / c.MeshCols
}

// CoreAt returns the core index at mesh coordinates (col,row).
func (c Config) CoreAt(col, row int) int { return row*c.MeshCols + col }

// GLLinesPerBarrier returns the number of G-lines one barrier context needs:
// two per row plus two for the first column (paper Section 3.1).
func (c Config) GLLinesPerBarrier() int { return 2 * (c.MeshRows + 1) }

// GLFitsFlat reports whether a single flat G-line network can span this mesh
// given the per-line transmitter limit (paper: up to 7x7 with 6 transmitters).
func (c Config) GLFitsFlat() bool {
	return c.MeshCols-1 <= c.GLMaxTransmitters && c.MeshRows-1 <= c.GLMaxTransmitters
}

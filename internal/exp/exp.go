// Package exp contains the experiment runners that regenerate every table
// and figure of the paper's evaluation, plus the accounting ablations.
// Each runner returns a structured result with Render (text report), and
// where applicable CSV, so the CLI, the tests and the benchmarks share
// one implementation.
//
// Every study-level runner is a thin scenario-grid construction over the
// declarative study layer: a Spec constructor describes the experiment
// as a study.Grid (see Fig9Spec and friends in spec.go), the grid runs
// on the deterministic sweep engine (SimParams.Workers goroutines,
// results bit-identical to a sequential run — see internal/sweep), and
// an assembly step shapes the results into the report struct. RunSpec
// dispatches a decoded spec to the same paths, which is what makes
// `fabricpower <subcmd> -print-scenario | fabricpower run -` reproduce
// the subcommand byte for byte.
//
// Experiment index:
//
//	Table 1  — RunTable1: node-switch LUTs, gate-level recharacterization
//	Table 2  — RunTable2: Banyan shared-SRAM buffer bit energy
//	§5.1     — TechReport: E_T_bit derivation (87 fJ)
//	Fig. 9   — RunFig9: power vs throughput, 4 architectures × 4 sizes
//	Fig. 10  — RunFig10: power vs ports at 50% throughput
//	Obs. 1   — RunCrossover: Banyan's low-load advantage at 32×32
//	§5.2/§6  — RunSaturation: input-buffered 58.6% ceiling
//	Ablations — RunBufferAblation, RunFCWireAblation, RunQueueAblation
//	Extension — RunDPMStudy: power-management policies × architectures ×
//	loads with static power attached (internal/dpm)
package exp

import (
	"fmt"

	"fabricpower/internal/router"
)

// SimParams carries the shared simulation knobs. The zero value uses
// paper-calibrated defaults.
type SimParams struct {
	// WarmupSlots and MeasureSlots bound each run (defaults 300/3000).
	WarmupSlots  uint64
	MeasureSlots uint64
	// Seed makes every experiment deterministic.
	Seed int64
	// CellBits is the fixed cell size (default 1024).
	CellBits int
	// Queue selects the ingress discipline (default FIFO, the paper's).
	Queue router.QueueDiscipline
	// Workers bounds a sweep's parallelism: every figure and study
	// runner fans its independent operating points across this many
	// goroutines via internal/sweep (0 = one per core, 1 = sequential).
	// Results are bit-identical for any worker count — see sweep's
	// package documentation for why.
	Workers int
}

// WithDefaults fills unset fields.
func (p SimParams) WithDefaults() SimParams {
	if p.WarmupSlots == 0 {
		p.WarmupSlots = 300
	}
	if p.MeasureSlots == 0 {
		p.MeasureSlots = 3000
	}
	if p.CellBits == 0 {
		p.CellBits = 1024
	}
	return p
}

// DefaultSizes returns the paper's port configurations (4×4 … 32×32).
func DefaultSizes() []int { return []int{4, 8, 16, 32} }

// DefaultLoads returns the paper's Fig. 9 throughput sweep, 10%–50%.
func DefaultLoads() []float64 { return []float64{0.10, 0.20, 0.30, 0.40, 0.50} }

// fmtMW formats a milliwatt value for tables.
func fmtMW(v float64) string { return fmt.Sprintf("%.3f", v) }

// fmtPct formats a fraction as a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// Package fabricpower estimates the power consumption of network-router
// switch fabrics, reproducing Ye, Benini and De Micheli, "Analysis of
// Power Consumption on Switch Fabrics in Network Routers" (DAC 2002).
//
// The library models the energy of every bit moving through a fabric —
// the paper's bit-energy framework — across three components: node
// switches (input-vector indexed look-up tables), internal buffers
// (shared-SRAM access energy paid on interconnect contention), and
// interconnect wires (½·C·V² per polarity flip, with Thompson-grid wire
// lengths). Four architectures are provided: Crossbar, FullyConnected,
// Banyan and BatcherBanyan.
//
// Two entry points cover most uses:
//
//   - Analytic evaluates the paper's closed-form worst-case bit energies
//     (Eqs. 3–6) for an architecture and port count.
//
//   - Simulate runs the bit-accurate slot simulator: TCP/IP-like traffic
//     through input-buffered ingress queues, an FCFS round-robin arbiter
//     and the selected fabric, returning measured throughput, latency and
//     a per-component power breakdown.
//
// Both are facades over the declarative study package: a Model is a
// study.ModelSpec, and Simulate translates its Options into one
// study.Scenario and runs it with study.RunScenario — the same path, and
// the same numbers, as `fabricpower run` on that scenario.
//
// See the examples directory for runnable walkthroughs, README.md for how
// to regenerate every figure (in parallel), and internal/exp for the
// experiment-by-experiment reproduction record.
package fabricpower

import (
	"fmt"

	"fabricpower/internal/core"
	"fabricpower/internal/tech"
	"fabricpower/study"
)

// Architecture selects a switch-fabric topology.
type Architecture int

// The four architectures analyzed by the paper.
const (
	Crossbar Architecture = iota
	FullyConnected
	Banyan
	BatcherBanyan
)

// String returns the canonical lower-case name.
func (a Architecture) String() string { return a.core().String() }

func (a Architecture) core() core.Architecture {
	return core.Architecture(a)
}

// Architectures lists all four in paper order.
func Architectures() []Architecture {
	return []Architecture{Crossbar, FullyConnected, Banyan, BatcherBanyan}
}

// Model wraps the bit-energy model parameters (technology point, node
// switch LUTs, buffer memory calibration) as a declarative
// study.ModelSpec.
type Model struct {
	spec study.ModelSpec
}

// DefaultModel returns the paper's case study: 0.18 µm / 3.3 V, Table 1
// reference LUTs, Table 2 SRAM calibration, 4 Kbit node buffers.
func DefaultModel() Model { return Model{spec: study.PaperModel()} }

// PerWordBufferModel returns the alternative Table 2 reading in which the
// SRAM access energy is charged per 32-bit word rather than per bit —
// the interpretation that recovers the paper's 35% Banyan crossover at
// 32×32 (see the BufferAccessGranularityBits discussion in internal/core).
func PerWordBufferModel() Model { return Model{spec: study.PerWordModel()} }

// with returns the model with edit applied, or the edit's validation
// error.
func (m Model) with(edit func(*study.ModelSpec)) (Model, error) {
	out := m
	edit(&out.spec)
	if _, err := out.spec.Build(); err != nil {
		return Model{}, err
	}
	return out, nil
}

// WithTechScaling derives a model at a scaled technology point: s scales
// feature size and capacitances, sv scales the supply voltage. Use it for
// what-if studies (e.g. a 0.13 µm shrink at 1.8 V: s=0.72, sv=0.55).
// Repeated scalings compose multiplicatively.
func (m Model) WithTechScaling(s, sv float64) (Model, error) {
	return m.with(func(spec *study.ModelSpec) {
		if ts := spec.TechScale; ts != nil {
			s, sv = s*ts.S, sv*ts.SV
		}
		spec.TechScale = &study.TechScale{S: s, SV: sv}
	})
}

// WithBufferAccesses sets how many SRAM accesses one buffering event
// charges per bit (1 = paper's Eq. 1, 2 = explicit write+read).
func (m Model) WithBufferAccesses(n int) (Model, error) {
	return m.with(func(spec *study.ModelSpec) { spec.BufferAccesses = n })
}

// WithStaticPower attaches the default static-power model (leakage and
// clock trees) so a power-managed simulation (Options.DPM) has idle
// power to save and Report.StaticMW is non-zero. Without it the model
// reproduces the paper's dynamic-only accounting.
func (m Model) WithStaticPower() Model {
	out := m
	out.spec.Static = true
	return out
}

// BitEnergy is a per-component energy breakdown in femtojoules.
type BitEnergy struct {
	SwitchFJ float64
	BufferFJ float64
	WireFJ   float64
}

// TotalFJ sums the components.
func (b BitEnergy) TotalFJ() float64 { return b.SwitchFJ + b.BufferFJ + b.WireFJ }

// Analytic evaluates the paper's closed-form worst-case bit energy
// (Eqs. 3–6) for one contention-free bit through the architecture.
func Analytic(a Architecture, ports int, m Model) (BitEnergy, error) {
	model, err := m.spec.Build()
	if err != nil {
		return BitEnergy{}, err
	}
	b, err := model.BitEnergy(a.core(), ports)
	if err != nil {
		return BitEnergy{}, err
	}
	return BitEnergy{SwitchFJ: b.SwitchFJ, BufferFJ: b.BufferFJ, WireFJ: b.WireFJ}, nil
}

// TrafficKind selects the workload shape.
type TrafficKind int

// Supported workloads.
const (
	// UniformTraffic is the paper's Bernoulli arrivals with uniform
	// random destinations.
	UniformTraffic TrafficKind = iota
	// BurstyTraffic uses on/off Markov sources.
	BurstyTraffic
	// HotspotTraffic concentrates a fraction of cells on one port.
	HotspotTraffic
)

// Options configures one simulation.
type Options struct {
	// Architecture and Ports select the fabric (ports must be a power of
	// two for the multistage fabrics; Batcher-Banyan needs ≥ 4). A zero
	// Ports selects the scenario default of 16.
	Architecture Architecture
	Ports        int
	// OfferedLoad is the per-port injection probability per cell slot,
	// in [0,1].
	OfferedLoad float64
	// CellBits is the fixed cell size (default 1024).
	CellBits int
	// Traffic selects the workload (default UniformTraffic).
	Traffic TrafficKind
	// MeanBurstSlots tunes BurstyTraffic (default 10).
	MeanBurstSlots float64
	// HotspotPort and HotspotFraction tune HotspotTraffic (defaults 0
	// and 0.3; the port must lie in [0, Ports)). A zero HotspotFraction
	// alone selects the 0.3 default; set ZeroHotspotFraction to make the
	// zero literal.
	HotspotPort     int
	HotspotFraction float64
	// ZeroHotspotFraction makes HotspotFraction: 0 literal — a hotspot
	// source that sends nothing extra to the hotspot (pure uniform).
	// The escape hatch exists because the zero value otherwise means
	// "unset, use the default".
	ZeroHotspotFraction bool
	// UseVOQ replaces the paper's FIFO ingress with virtual output
	// queues and iSLIP matching (extension).
	UseVOQ bool
	// WarmupSlots and MeasureSlots bound the run (defaults 300/3000).
	// A zero WarmupSlots alone selects the 300-slot default; set
	// NoWarmup to measure from slot 0 with cold queues and pipelines.
	WarmupSlots  uint64
	MeasureSlots uint64
	// NoWarmup makes WarmupSlots: 0 literal (see WarmupSlots).
	NoWarmup bool
	// Seed makes the run deterministic (default 1): the traffic stream
	// derives from (Seed, Ports, OfferedLoad). A zero Seed alone selects
	// the default; set ZeroSeed to run on seed 0 itself.
	Seed int64
	// ZeroSeed makes Seed: 0 literal (see Seed).
	ZeroSeed bool
	// DPM names a dynamic power-management policy ("alwayson",
	// "idlegate", "buffersleep", "loaddvfs", "composite", or a policy
	// registered through the study package) to drive the router.
	// Combine with Model.WithStaticPower for the policy to have idle
	// power to save; the ledger lands in Report.StaticMW and
	// Report.DPM. Empty means the paper's unmanaged router.
	DPM string
	// Model overrides the bit-energy model (default DefaultModel).
	Model *Model
}

// scenario translates the options into the study scenario Simulate
// runs. Unset fields are left for the scenario's own defaults; the
// escape hatches map onto its pointer fields, whose nil means "unset".
func (o Options) scenario() (study.Scenario, error) {
	model := DefaultModel()
	if o.Model != nil {
		model = *o.Model
	}
	sc := study.Scenario{
		Model: model.spec,
		Fabric: study.FabricSpec{
			Arch:     o.Architecture.String(),
			Ports:    o.Ports,
			CellBits: o.CellBits,
		},
		Traffic: study.TrafficSpec{
			Load:           o.OfferedLoad,
			MeanBurstSlots: o.MeanBurstSlots,
			HotspotPort:    o.HotspotPort,
		},
		DPM: o.DPM,
		Sim: study.SimSpec{MeasureSlots: o.MeasureSlots, Seed: o.Seed},
	}
	switch o.Traffic {
	case UniformTraffic:
		sc.Traffic.Kind = "uniform"
	case BurstyTraffic:
		sc.Traffic.Kind = "bursty"
	case HotspotTraffic:
		sc.Traffic.Kind = "hotspot"
	default:
		return study.Scenario{}, fmt.Errorf("fabricpower: unknown traffic kind %d", int(o.Traffic))
	}
	if o.HotspotFraction != 0 || o.ZeroHotspotFraction {
		f := o.HotspotFraction
		sc.Traffic.HotspotFraction = &f
	}
	if o.UseVOQ {
		sc.Queue = "voq"
	}
	if o.WarmupSlots != 0 || o.NoWarmup {
		w := o.WarmupSlots
		sc.Sim.WarmupSlots = &w
	}
	if o.Seed == 0 && !o.ZeroSeed {
		sc.Sim.Seed = 1
	}
	return sc, nil
}

// Report is the outcome of one simulation.
type Report struct {
	// Throughput is the measured egress throughput as a fraction of the
	// aggregate port capacity.
	Throughput float64
	// AvgLatencySlots and MaxLatencySlots summarize cell latency.
	AvgLatencySlots float64
	MaxLatencySlots uint64
	// SwitchMW, BufferMW and WireMW break down the fabric's dynamic
	// power; StaticMW is the always-on (leakage + clock) power drawn
	// over the window, including state-transition overhead — zero
	// unless the run carried a power manager over a model with static
	// power attached (Options.DPM + Model.WithStaticPower). TotalMW
	// sums all four.
	SwitchMW float64
	BufferMW float64
	WireMW   float64
	StaticMW float64
	// EnergyPerBitFJ is the measured average fabric energy per delivered
	// bit — directly comparable to Analytic's worst case.
	EnergyPerBitFJ float64
	// BufferEvents counts internal bufferings (Banyan only).
	BufferEvents uint64
	// DroppedCells counts ingress overflows (0 with unbounded queues).
	DroppedCells uint64
	// DPM is the power manager's state ledger over the measured
	// window; nil when Options.DPM was empty.
	DPM *DPMStats
}

// DPMStats summarizes what the power-management policy did over the
// measured window.
type DPMStats struct {
	// Policy names the deciding policy.
	Policy string
	// GatedPortSlots counts port-slots spent clock-gated; DrowsySlots
	// slots the SRAM spent drowsy; StalledSlots slots DVFS throttling
	// or transition freezes blocked admission.
	GatedPortSlots uint64
	DrowsySlots    uint64
	StalledSlots   uint64
	// Transitions, WakeEvents and DVFSShifts count state changes.
	Transitions uint64
	WakeEvents  uint64
	DVFSShifts  uint64
	// SavedMW is the net power the policy saved against the always-on
	// static ledger (forgone idle power minus transition cost, plus
	// DVFS dynamic savings).
	SavedMW float64
}

// TotalMW sums the power components, static included.
func (r Report) TotalMW() float64 { return r.SwitchMW + r.BufferMW + r.WireMW + r.StaticMW }

// Simulate runs the bit-accurate simulation platform on one operating
// point and reports measured throughput, latency and power. The point
// runs as a study.Scenario, so its traffic stream derives from (Seed,
// Ports, OfferedLoad) exactly as on every grid and `fabricpower run`.
func Simulate(opt Options) (Report, error) {
	sc, err := opt.scenario()
	if err != nil {
		return Report{}, err
	}
	res, err := study.RunScenario(sc)
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		Throughput:      res.Throughput,
		AvgLatencySlots: res.AvgLatencySlots,
		MaxLatencySlots: res.MaxLatencySlots,
		SwitchMW:        res.Power.SwitchMW,
		BufferMW:        res.Power.BufferMW,
		WireMW:          res.Power.WireMW,
		StaticMW:        res.Power.StaticMW,
		EnergyPerBitFJ:  res.EnergyPerBitFJ,
		BufferEvents:    res.BufferEvents,
		DroppedCells:    res.DroppedCells,
	}
	if d := res.DPM; d != nil {
		rep.DPM = &DPMStats{
			Policy:         d.Policy,
			GatedPortSlots: d.GatedPortSlots,
			DrowsySlots:    d.DrowsySlots,
			StalledSlots:   d.StalledSlots,
			Transitions:    d.Transitions,
			WakeEvents:     d.WakeEvents,
			DVFSShifts:     d.DVFSShifts,
			SavedMW:        tech.PowerMW(d.SavedFJ(), float64(res.Slots)*res.SlotNS),
		}
	}
	return rep, nil
}

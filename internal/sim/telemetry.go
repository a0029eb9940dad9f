package sim

import (
	"fabricpower/internal/dpm"
	"fabricpower/internal/router"
	"fabricpower/internal/tech"
)

// TelemetryConfig attaches an every-K-slots probe to a single-router
// run: each sample covers the interval since the previous one with the
// same power accounting Snapshot uses for the whole window. A nil
// config leaves Run on its probe-free fast path; results are identical
// either way, because the probe only reads ledgers the run already
// keeps.
type TelemetryConfig struct {
	// Every is the sample interval in slots (default 64).
	Every uint64
	// OnSample receives each interval sample. The pointed-to sample is
	// reused across intervals: sinks must consume or copy it before
	// returning.
	OnSample func(*TelemetrySample)
}

func (tc TelemetryConfig) withDefaults() TelemetryConfig {
	if tc.Every == 0 {
		tc.Every = 64
	}
	return tc
}

// DPMTelemetry is the manager's state-machine activity over one
// interval: the counters are deltas, while WakingPorts, DVFSLevel and
// Load are the manager's state at the sample's Slot (dpm.Manager.State).
type DPMTelemetry struct {
	GatedPortSlots uint64  `json:"gatedPortSlots"`
	DrowsySlots    uint64  `json:"drowsySlots"`
	StalledSlots   uint64  `json:"stalledSlots"`
	Transitions    uint64  `json:"transitions"`
	WakeEvents     uint64  `json:"wakeEvents"`
	DVFSShifts     uint64  `json:"dvfsShifts"`
	WakingPorts    int     `json:"wakingPorts"`
	DVFSLevel      int     `json:"dvfsLevel"`
	Load           float64 `json:"load"`
}

// TelemetrySample is one interval of a single-router time series. Slot
// is the exclusive end of the covered window [Slot-Interval, Slot);
// counters are deltas, queue depths instantaneous.
type TelemetrySample struct {
	Kind     string `json:"kind"` // "sim_sample"
	Slot     uint64 `json:"slot"`
	Interval uint64 `json:"interval"`
	// DynamicMW is the fabric (DVFS-adjusted) power over the window;
	// StaticMW the managed static + transition power (zero unmanaged).
	DynamicMW float64 `json:"dynamicMW"`
	StaticMW  float64 `json:"staticMW"`
	// DeliveredCells and DroppedCells are window deltas; QueuedCells
	// and BufferedCells are the backlog at Slot.
	DeliveredCells uint64        `json:"delivered"`
	DroppedCells   uint64        `json:"dropped"`
	QueuedCells    int           `json:"queuedCells"`
	BufferedCells  int           `json:"bufferedCells"`
	DPM            *DPMTelemetry `json:"dpm,omitempty"`
}

// probe is the run-scoped sampling state behind Options.Telemetry.
type probe struct {
	cfg    TelemetryConfig
	slotNS float64

	startSlot uint64
	nextSlot  uint64

	sample TelemetrySample
	dpm    DPMTelemetry

	lastDynFJ     float64
	lastStaticFJ  float64
	lastDelivered uint64
	lastDropped   uint64
	lastDPM       DPMTelemetry
}

func newProbe(cfg TelemetryConfig, tp tech.Params, cellBits int) *probe {
	cfg = cfg.withDefaults()
	return &probe{
		cfg:      cfg,
		slotNS:   tp.CellTimeNS(cellBits),
		nextSlot: cfg.Every,
		sample:   TelemetrySample{Kind: "sim_sample"},
	}
}

// take closes the interval [p.startSlot, slot) against the router's
// cumulative ledgers and hands the reused sample to the sink.
func (p *probe) take(slot uint64, r *router.Router, mgr *dpm.Manager) {
	interval := slot - p.startSlot
	p.startSlot = slot
	p.nextSlot = slot + p.cfg.Every
	if interval == 0 {
		return
	}
	smp := &p.sample
	smp.Slot = slot
	smp.Interval = interval

	dynFJ := r.Fabric().Energy().TotalFJ()
	var staticFJ float64
	if mgr != nil {
		rep := mgr.Report()
		dynFJ += rep.DynamicAdjust.TotalFJ()
		staticFJ = rep.StaticFJ + rep.TransitionFJ
		now := DPMTelemetry{
			GatedPortSlots: rep.GatedPortSlots,
			DrowsySlots:    rep.DrowsySlots,
			StalledSlots:   rep.StalledSlots,
			Transitions:    rep.Transitions,
			WakeEvents:     rep.WakeEvents,
			DVFSShifts:     rep.DVFSShifts,
		}
		p.dpm = DPMTelemetry{
			GatedPortSlots: now.GatedPortSlots - p.lastDPM.GatedPortSlots,
			DrowsySlots:    now.DrowsySlots - p.lastDPM.DrowsySlots,
			StalledSlots:   now.StalledSlots - p.lastDPM.StalledSlots,
			Transitions:    now.Transitions - p.lastDPM.Transitions,
			WakeEvents:     now.WakeEvents - p.lastDPM.WakeEvents,
			DVFSShifts:     now.DVFSShifts - p.lastDPM.DVFSShifts,
		}
		p.dpm.WakingPorts, p.dpm.DVFSLevel, p.dpm.Load = mgr.State()
		p.lastDPM = now
		smp.DPM = &p.dpm
	} else {
		smp.DPM = nil
	}
	durationNS := float64(interval) * p.slotNS
	smp.DynamicMW = tech.PowerMW(dynFJ-p.lastDynFJ, durationNS)
	smp.StaticMW = tech.PowerMW(staticFJ-p.lastStaticFJ, durationNS)
	p.lastDynFJ, p.lastStaticFJ = dynFJ, staticFJ

	m := r.Metrics()
	smp.DeliveredCells = m.DeliveredCells - p.lastDelivered
	smp.DroppedCells = m.DroppedCells - p.lastDropped
	p.lastDelivered, p.lastDropped = m.DeliveredCells, m.DroppedCells
	smp.QueuedCells = r.QueuedCells()
	smp.BufferedCells = r.BufferedCells()

	if p.cfg.OnSample != nil {
		p.cfg.OnSample(smp)
	}
}

// rebase zeroes the delta baselines after the warmup reset.
func (p *probe) rebase() {
	p.lastDynFJ, p.lastStaticFJ = 0, 0
	p.lastDelivered, p.lastDropped = 0, 0
	p.lastDPM = DPMTelemetry{}
}

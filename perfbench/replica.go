package main

import (
	"fmt"
	"math"
	"os"

	"fabricpower/internal/core"
	"fabricpower/internal/dpm"
	"fabricpower/internal/fabric"
	"fabricpower/internal/netsim"
	"fabricpower/internal/packet"
	"fabricpower/internal/router"
	"fabricpower/internal/sim"
	"fabricpower/internal/sweep"
	"fabricpower/internal/telemetry/trace"
	"fabricpower/internal/traffic"
	"fabricpower/study"
)

// The replica assembles each grid point from the same public
// constructors study uses and drives it with a timer around every call
// into a layer, so the per-layer costs are measured from outside the
// program. Its records must equal study.Grid.Run's byte for byte: any
// drift between the replica and the study layer fails the traced run.

// spanEvery is K: every K-th slot's layer spans are kept for the
// Chrome trace (the network kernel's TraceConfig samples the same K).
const spanEvery = 64

// layers accumulates one replica pass's measurements. Times are
// nanoseconds; counts are exact.
type layers struct {
	// Self time per layer name: only calls into the program count.
	// The replica's own code (its slot loop, its timers, result
	// conversion) is in no layer, so wallNS − Σ self is uncovered.
	self   map[string]int64
	wallNS int64

	points, netPoints int
	buildNS           int64 // model + router/dpm/traffic or network build
	netBuildNS        int64
	netRunNS          int64
	netNodeSlots      float64

	genNS, injectNS           int64
	cells, slots              uint64
	stepNS, archSlots         map[string]int64
	delivered                 uint64
	gatedPortSlots, portSlots uint64
	transitions, dvfsShifts   uint64

	netHops, netSlots    float64
	netOffered, netDeliv uint64
	spineNS, nodeNS      uint64
	imbalance            []float64
	netPIDs              []int
}

func newLayers() *layers {
	return &layers{self: map[string]int64{}, stepNS: map[string]int64{}, archSlots: map[string]int64{}}
}

// replica runs points under one recorder.
type replica struct {
	rec *trace.Recorder
	// nativeShards keeps each network's own shard count; otherwise
	// every network runs on one shard.
	nativeShards bool
	// pidBase offsets the Perfetto process ids of this pass's points.
	pidBase int
	// next is the pass-wide index of the next point.
	next int
}

// point runs one resolved, validated scenario. Points are numbered
// across the pass's specs; point i is Perfetto process pidBase+i+1.
func (rp *replica) point(sc study.Scenario, L *layers) (study.Result, error) {
	i := rp.next
	rp.next++
	pid := rp.pidBase + i + 1
	rp.rec.SetProcessName(pid, fmt.Sprintf("p%d %s", i, sc.Label()))
	tk := rp.rec.Track(pid, "replica")
	t0 := rp.rec.Now()
	model, err := sc.Model.Build()
	t1 := rp.rec.Now()
	L.self["model"] += t1 - t0
	if err != nil {
		return study.Result{}, err
	}
	L.points++
	if sc.Network != nil {
		return rp.network(i, pid, tk, t0, sc, model, L)
	}
	return rp.single(tk, t0, sc, model, L)
}

func parseQueue(name string) (router.QueueDiscipline, error) {
	switch name {
	case "fifo":
		return router.FIFO, nil
	case "voq":
		return router.VOQ, nil
	}
	return router.FIFO, fmt.Errorf("unknown queue discipline %q", name)
}

func loadTrace(path string) (*traffic.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return traffic.ReadTrace(f)
}

// generator builds the traffic generators the workloads use, the way
// study does.
func generator(t study.TrafficSpec, ports int, cfg packet.Config, seed int64) (sim.Generator, error) {
	switch t.Kind {
	case "uniform":
		return traffic.NewInjector(ports, t.Load, cfg, nil, seed)
	case "bursty":
		return traffic.NewOnOffInjector(ports, t.MeanBurstSlots, t.Load, cfg, nil, seed)
	case "trace":
		tr, err := loadTrace(t.Trace)
		if err != nil {
			return nil, err
		}
		return traffic.NewPlayer(tr, cfg)
	}
	return nil, fmt.Errorf("the replica has no traffic kind %q", t.Kind)
}

// single runs a single-router point: the sim.Run slot loop, timed per
// call, closed with sim.Snapshot. start is the point's start.
func (rp *replica) single(tk *trace.Track, start int64, sc study.Scenario, model core.Model, L *layers) (study.Result, error) {
	now := rp.rec.Now
	arch, err := core.ParseArchitecture(sc.Fabric.Arch)
	if err != nil {
		return study.Result{}, err
	}
	queue, err := parseQueue(sc.Queue)
	if err != nil {
		return study.Result{}, err
	}
	ports, cellBits := sc.Fabric.Ports, sc.Fabric.CellBits
	cellCfg := packet.Config{CellBits: cellBits, BusWidth: model.Tech.BusWidth}
	var mgr *dpm.Manager
	t := now()
	if sc.DPM != "" {
		pol, err := dpm.NewPolicy(sc.DPM)
		if err != nil {
			return study.Result{}, err
		}
		mgr, err = dpm.New(dpm.Config{Arch: arch, Ports: ports, Model: model, CellBits: cellBits, Policy: pol})
		if err != nil {
			return study.Result{}, err
		}
	}
	t2 := now()
	L.self["dpm"] += t2 - t
	rcfg := router.Config{
		Arch:   arch,
		Fabric: fabric.Config{Ports: ports, Cell: cellCfg, Model: model},
		Queue:  queue,
	}
	if mgr != nil {
		rcfg.Gate = mgr
	}
	r, err := router.New(rcfg)
	t3 := now()
	L.self["router"] += t3 - t2
	if err != nil {
		return study.Result{}, err
	}
	gen, err := generator(sc.Traffic, ports, cellCfg, sweep.PointSeed(sc.Sim.Seed, ports, sc.Traffic.Load))
	t4 := now()
	L.self["traffic"] += t4 - t3
	if err != nil {
		return study.Result{}, err
	}
	if err := model.Tech.Validate(); err != nil {
		return study.Result{}, err
	}
	L.buildNS += t4 - start
	tk.Emit("build", start, t4)

	// The loop mirrors sim.Run: warmup, ledger reset, measurement.
	warmup, measure := *sc.Sim.WarmupSlots, sc.Sim.MeasureSlots
	var genNS, injNS, dpmNS, stepNS int64
	var cells, delivered uint64
	slot := uint64(0)
	runSlots := func(end uint64) {
		for ; slot < end; slot++ {
			a := now()
			cs := gen.Generate(slot)
			b := now()
			for _, c := range cs {
				r.Inject(c, slot)
			}
			c := now()
			var d, e, f int64
			if mgr != nil {
				mgr.PreSlot(slot, r)
				d = now()
				out := r.Step(slot)
				e = now()
				delivered += uint64(len(out))
				mgr.PostSlot(slot, out, r.Fabric().Energy())
				f = now()
			} else {
				d = c
				delivered += uint64(len(r.Step(slot)))
				e = now()
				f = e
			}
			genNS += b - a
			injNS += c - b
			dpmNS += (d - c) + (f - e)
			stepNS += e - d
			cells += uint64(len(cs))
			if slot%spanEvery == 0 {
				tk.EmitArg("generate", a, b, int64(slot))
				tk.Emit("inject", b, c)
				if mgr != nil {
					tk.Emit("dpm.pre", c, d)
					tk.Emit("dpm.post", e, f)
				}
				tk.Emit("step", d, e)
			}
		}
	}
	w0 := now()
	runSlots(warmup)
	r.ResetMetrics()
	r.Fabric().ResetEnergy()
	if mgr != nil {
		mgr.BeginMeasurement()
	}
	var bufferBase uint64
	if bc, ok := r.Fabric().(interface{ BufferEvents() uint64 }); ok {
		bufferBase = bc.BufferEvents()
	}
	w1 := now()
	tk.Emit("warmup", w0, w1)
	runSlots(warmup + measure)
	w2 := now()
	tk.Emit("measure", w1, w2)
	res := sim.Snapshot(r, mgr, model.Tech, cellBits, measure, bufferBase)
	ws := now()
	out := fromSim(res, model, cellBits)
	w3 := now()
	tk.Emit("snapshot", w2, w3)

	L.genNS += genNS
	L.injectNS += injNS
	L.stepNS[sc.Fabric.Arch] += stepNS
	L.archSlots[sc.Fabric.Arch] += int64(warmup + measure)
	L.cells += cells
	L.slots += warmup + measure
	L.delivered += delivered
	L.self["traffic"] += genNS
	L.self["router"] += injNS + stepNS
	L.self["dpm"] += dpmNS
	L.self["sim"] += ws - w2
	if res.DPM != nil {
		L.gatedPortSlots += res.DPM.GatedPortSlots
		L.portSlots += uint64(ports) * measure
		L.transitions += res.DPM.Transitions
		L.dvfsShifts += res.DPM.DVFSShifts
	}
	return out, nil
}

// fromSim converts a kernel result into study's public form, field for
// field as study does.
func fromSim(res sim.Result, model core.Model, cellBits int) study.Result {
	out := study.Result{
		Arch:            res.Arch.String(),
		Ports:           res.Ports,
		Slots:           res.Slots,
		SlotNS:          model.Tech.CellTimeNS(cellBits),
		Throughput:      res.Throughput,
		AvgLatencySlots: res.AvgLatencySlots,
		MaxLatencySlots: res.MaxLatencySlots,
		Energy: study.Energy{
			SwitchFJ: res.Energy.SwitchFJ,
			BufferFJ: res.Energy.BufferFJ,
			WireFJ:   res.Energy.WireFJ,
		},
		Power: study.Power{
			SwitchMW: res.Power.SwitchMW,
			BufferMW: res.Power.BufferMW,
			WireMW:   res.Power.WireMW,
			StaticMW: res.Power.StaticMW,
		},
		BufferEvents: res.BufferEvents,
		DroppedCells: res.DroppedCells,
		QueuedCells:  res.QueuedCells,
	}
	deliveredBits := res.Throughput * float64(res.Ports) * float64(res.Slots) * float64(cellBits)
	if deliveredBits > 0 {
		out.EnergyPerBitFJ = res.Energy.TotalFJ() / deliveredBits
	}
	if res.DPM != nil {
		out.DPM = &study.DPMReport{
			Policy:           res.DPM.Policy,
			Slots:            res.DPM.Slots,
			StaticFJ:         res.DPM.StaticFJ,
			AlwaysOnStaticFJ: res.DPM.AlwaysOnStaticFJ,
			TransitionFJ:     res.DPM.TransitionFJ,
			DynamicAdjustFJ:  res.DPM.DynamicAdjust.TotalFJ(),
			Transitions:      res.DPM.Transitions,
			WakeEvents:       res.DPM.WakeEvents,
			DVFSShifts:       res.DPM.DVFSShifts,
			GatedPortSlots:   res.DPM.GatedPortSlots,
			DrowsySlots:      res.DPM.DrowsySlots,
			StalledSlots:     res.DPM.StalledSlots,
		}
	}
	return out
}

// networkSeed mirrors study's per-point network seed: the base seed
// mixed with topology, node count and load (FNV-1a).
func networkSeed(base int64, topo string, nodes int, load float64) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(base))
	for _, b := range []byte(topo) {
		h ^= uint64(b)
		h *= prime64
	}
	mix(uint64(nodes))
	mix(math.Float64bits(load))
	return int64(h)
}

// faultPlan lowers a failures block into the kernel's plan.
func faultPlan(f *study.FailureSpec) *netsim.FaultPlan {
	if f == nil || (f.MTBF == 0 && f.NodeMTBF == 0 && len(f.Events) == 0) {
		return nil
	}
	plan := &netsim.FaultPlan{
		MTBF: f.MTBF, MTTR: f.MTTR, NodeMTBF: f.NodeMTBF, NodeMTTR: f.NodeMTTR,
		ResidualMW: f.ResidualMW, ReconvergeCostFJ: f.ReconvergeCostFJ,
	}
	for _, e := range f.Events {
		ev := netsim.FaultEvent{Slot: e.Slot, Node: -1, Down: e.Down}
		if e.Node != nil {
			ev.Node = *e.Node
		} else if e.Link != nil {
			ev.From, ev.To = e.Link[0], e.Link[1]
		}
		plan.Events = append(plan.Events, ev)
	}
	return plan
}

// network runs a network point via netsim.New and Run with the
// execution profiler attached.
func (rp *replica) network(i, pid int, tk *trace.Track, start int64, sc study.Scenario, model core.Model, L *layers) (study.Result, error) {
	now := rp.rec.Now
	arch, err := core.ParseArchitecture(sc.Fabric.Arch)
	if err != nil {
		return study.Result{}, err
	}
	queue, err := parseQueue(sc.Queue)
	if err != nil {
		return study.Result{}, err
	}
	ns := sc.Network
	b0 := now()
	t, err := netsim.BuildTopology(ns.Topology, ns.Nodes)
	if err != nil {
		return study.Result{}, err
	}
	rt, err := netsim.NewRouting(ns.Routing)
	if err != nil {
		return study.Result{}, err
	}
	m, err := netsim.NewMatrix(ns.Matrix)
	if err != nil {
		return study.Result{}, err
	}
	var flows netsim.Traffic
	switch sc.Traffic.Kind {
	case "uniform", "bursty":
		flows = netsim.Traffic{Kind: sc.Traffic.Kind, MeanBurstSlots: sc.Traffic.MeanBurstSlots}
	case "trace":
		tr, err := loadTrace(sc.Traffic.Trace)
		if err != nil {
			return study.Result{}, err
		}
		flows = netsim.Traffic{Kind: "trace", Trace: tr}
	default:
		return study.Result{}, fmt.Errorf("the replica has no network traffic kind %q", sc.Traffic.Kind)
	}
	shards := 1
	if rp.nativeShards {
		shards = ns.Shards
	}
	net, err := netsim.New(netsim.Config{
		Topology:       t,
		Arch:           arch,
		Model:          model,
		CellBits:       sc.Fabric.CellBits,
		Queue:          queue,
		MaxQueueCells:  ns.MaxQueueCells,
		LinkQueueCells: ns.LinkQueueCells,
		Policy:         sc.DPM,
		Routing:        rt,
		Matrix:         m,
		Load:           sc.Traffic.Load,
		Traffic:        flows,
		Shards:         shards,
		IdleSkip:       ns.IdleSkip,
		Seed:           networkSeed(sc.Sim.Seed, ns.Topology, ns.Nodes, sc.Traffic.Load),
		Faults:         faultPlan(ns.Failures),
		Trace: &netsim.TraceConfig{
			Recorder: rp.rec, Every: spanEvery, PID: pid, Prefix: fmt.Sprintf("p%d ", i),
		},
	})
	b1 := now()
	if err != nil {
		return study.Result{}, err
	}
	defer net.Close()
	tk.Emit("build", start, b1)
	rep, err := net.Run(*sc.Sim.WarmupSlots, sc.Sim.MeasureSlots)
	r1 := now()
	if err != nil {
		return study.Result{}, err
	}
	tk.Emit("run", b1, r1)
	out := study.Result{
		Arch:            arch.String(),
		Ports:           t.Ports,
		Slots:           rep.Slots,
		SlotNS:          model.Tech.CellTimeNS(sc.Fabric.CellBits),
		AvgLatencySlots: rep.AvgLatencySlots,
		MaxLatencySlots: rep.MaxLatencySlots,
		Energy: study.Energy{
			SwitchFJ: rep.Energy.SwitchFJ,
			BufferFJ: rep.Energy.BufferFJ,
			WireFJ:   rep.Energy.WireFJ,
		},
		Power: study.Power{
			SwitchMW: rep.Total.SwitchMW,
			BufferMW: rep.Total.BufferMW,
			WireMW:   rep.Total.WireMW,
			StaticMW: rep.Total.StaticMW,
		},
		Net: &study.NetReport{
			Topology:         rep.Topology,
			Nodes:            rep.Nodes,
			OfferedCells:     rep.OfferedCells,
			DeliveredCells:   rep.DeliveredCells,
			NodeDroppedCells: rep.NodeDroppedCells,
			LinkDroppedCells: rep.LinkDroppedCells,
			DeliveryRatio:    rep.DeliveryRatio,
			AvgHops:          rep.AvgHops,
			Resilience:       fromResilience(rep.Resilience),
		},
	}
	if bits := float64(rep.DeliveredCells) * float64(sc.Fabric.CellBits); bits > 0 {
		out.EnergyPerBitFJ = rep.Energy.TotalFJ() / bits
	}
	r2 := now()
	tk.Emit("snapshot", r1, r2)

	slots := *sc.Sim.WarmupSlots + sc.Sim.MeasureSlots
	L.netPoints++
	L.buildNS += b1 - start
	L.netBuildNS += b1 - b0
	L.netRunNS += r1 - b1
	L.netNodeSlots += float64(t.Nodes) * float64(slots)
	L.self["netsim"] += r1 - b0
	L.netHops += float64(rep.DeliveredCells) * rep.AvgHops
	L.netSlots += float64(rep.Slots)
	L.netOffered += rep.OfferedCells
	L.netDeliv += rep.DeliveredCells
	for _, n := range rep.PerNode {
		if n.DPM != nil {
			L.gatedPortSlots += n.DPM.GatedPortSlots
			L.portSlots += uint64(t.Ports) * rep.Slots
			L.transitions += n.DPM.Transitions
			L.dvfsShifts += n.DPM.DVFSShifts
		}
	}
	if ep := net.ExecProfile(); ep != nil {
		host := make([]bool, t.Nodes)
		for _, h := range t.Hosts {
			host[h] = true
		}
		for u, c := range ep.NodeCostNS {
			L.nodeNS += c
			if !host[u] {
				L.spineNS += c
			}
		}
		L.imbalance = append(L.imbalance, ep.Imbalance)
	}
	L.netPIDs = append(L.netPIDs, pid)
	return out, nil
}

// fromResilience converts the kernel's resilience ledger as study does.
func fromResilience(r *netsim.ResilienceReport) *study.ResilienceReport {
	if r == nil {
		return nil
	}
	out := &study.ResilienceReport{
		LostCells:        r.LostCells,
		NodeDownSlots:    r.NodeDownSlots,
		ReconvergeEvents: r.ReconvergeEvents,
		ReroutedFlows:    r.ReroutedFlows,
		ReconvergeFJ:     r.ReconvergeFJ,
		ResidualFJ:       r.ResidualFJ,
	}
	for _, f := range r.Flows {
		out.Flows = append(out.Flows, study.FlowResilience{
			Src: f.Src, Dst: f.Dst, Offered: f.Offered, Delivered: f.Delivered, Lost: f.Lost,
		})
	}
	for _, l := range r.Links {
		out.Links = append(out.Links, study.LinkResilience{
			From: l.From, To: l.To, DownSlots: l.DownSlots, Availability: l.Availability,
		})
	}
	return out
}

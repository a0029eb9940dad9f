package fabricpower

import (
	"math"
	"testing"

	"fabricpower/study"
)

func TestArchitectureNames(t *testing.T) {
	want := map[Architecture]string{
		Crossbar:       "crossbar",
		FullyConnected: "fullyconnected",
		Banyan:         "banyan",
		BatcherBanyan:  "batcherbanyan",
	}
	for a, name := range want {
		if a.String() != name {
			t.Errorf("%d: %q, want %q", int(a), a.String(), name)
		}
	}
	if len(Architectures()) != 4 {
		t.Fatal("four architectures")
	}
}

func TestAnalyticMatchesPaperConstants(t *testing.T) {
	// Crossbar Eq. 3 at N=16 with the paper's constants:
	// 16·220 + 8·16·87.12 = 3520 + 11151.4 fJ.
	b, err := Analytic(Crossbar, 16, DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.SwitchFJ-3520) > 1e-9 {
		t.Fatalf("switch %g", b.SwitchFJ)
	}
	if math.Abs(b.WireFJ-8*16*87.12) > 1 {
		t.Fatalf("wire %g", b.WireFJ)
	}
	if b.TotalFJ() != b.SwitchFJ+b.BufferFJ+b.WireFJ {
		t.Fatal("total")
	}
}

func TestAnalyticErrors(t *testing.T) {
	if _, err := Analytic(Banyan, 6, DefaultModel()); err == nil {
		t.Fatal("non-power-of-two should fail")
	}
	if _, err := Analytic(BatcherBanyan, 2, DefaultModel()); err == nil {
		t.Fatal("N=2 batcher should fail")
	}
}

func TestSimulateQuickstartScenario(t *testing.T) {
	rep, err := Simulate(Options{
		Architecture: Banyan,
		Ports:        16,
		OfferedLoad:  0.3,
		MeasureSlots: 1200,
		WarmupSlots:  150,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Throughput-0.3) > 0.04 {
		t.Fatalf("throughput %g, want ≈0.3", rep.Throughput)
	}
	if rep.TotalMW() <= 0 || rep.EnergyPerBitFJ <= 0 {
		t.Fatal("power and energy per bit must be positive")
	}
	if rep.BufferEvents == 0 {
		t.Fatal("a loaded banyan should buffer")
	}
	if rep.BufferMW <= 0 {
		t.Fatal("buffer power should follow events")
	}
}

func TestSimulateContentionFreeFabric(t *testing.T) {
	rep, err := Simulate(Options{
		Architecture: Crossbar,
		Ports:        8,
		OfferedLoad:  0.4,
		MeasureSlots: 800,
		WarmupSlots:  100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BufferMW != 0 || rep.BufferEvents != 0 {
		t.Fatal("crossbar must not buffer")
	}
}

func TestSimulateRejectsBadOptions(t *testing.T) {
	if _, err := Simulate(Options{Architecture: Banyan, Ports: 5, OfferedLoad: 0.3}); err == nil {
		t.Fatal("bad ports should fail")
	}
	if _, err := Simulate(Options{Architecture: Crossbar, Ports: 8, OfferedLoad: 2}); err == nil {
		t.Fatal("bad load should fail")
	}
	if _, err := Simulate(Options{Architecture: Crossbar, Ports: 8, OfferedLoad: 0.5, Traffic: TrafficKind(9)}); err == nil {
		t.Fatal("bad traffic kind should fail")
	}
	for _, port := range []int{-1, 8, 99} {
		if _, err := Simulate(Options{Architecture: Crossbar, Ports: 8, OfferedLoad: 0.3,
			Traffic: HotspotTraffic, HotspotPort: port}); err == nil {
			t.Errorf("hotspot port %d on an 8-port fabric should fail", port)
		}
	}
}

func TestSimulateTrafficKinds(t *testing.T) {
	for _, k := range []TrafficKind{UniformTraffic, BurstyTraffic, HotspotTraffic} {
		rep, err := Simulate(Options{
			Architecture: FullyConnected,
			Ports:        8,
			OfferedLoad:  0.3,
			Traffic:      k,
			MeasureSlots: 600,
			WarmupSlots:  100,
		})
		if err != nil {
			t.Fatalf("kind %d: %v", int(k), err)
		}
		if rep.TotalMW() <= 0 {
			t.Fatalf("kind %d: no power", int(k))
		}
	}
}

func TestSimulateVOQOption(t *testing.T) {
	rep, err := Simulate(Options{
		Architecture: Crossbar,
		Ports:        8,
		OfferedLoad:  1.0,
		UseVOQ:       true,
		MeasureSlots: 1200,
		WarmupSlots:  300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throughput < 0.8 {
		t.Fatalf("VOQ at full load should exceed the FIFO ceiling, got %g", rep.Throughput)
	}
}

// TestOptionsExplicitZeros pins the unset-vs-zero escape hatches: the
// zero value of each trapped field selects the documented default, and
// the matching bool makes the zero literal.
func TestOptionsExplicitZeros(t *testing.T) {
	resolved := func(o Options) study.Scenario {
		t.Helper()
		sc, err := o.scenario()
		if err != nil {
			t.Fatal(err)
		}
		return sc.Resolved()
	}
	d := resolved(Options{})
	if *d.Sim.WarmupSlots != 300 || d.Sim.Seed != 1 || *d.Traffic.HotspotFraction != 0.3 {
		t.Fatalf("defaults: warmup %d, seed %d, hotspot fraction %g",
			*d.Sim.WarmupSlots, d.Sim.Seed, *d.Traffic.HotspotFraction)
	}
	e := resolved(Options{NoWarmup: true, ZeroSeed: true, ZeroHotspotFraction: true})
	if *e.Sim.WarmupSlots != 0 {
		t.Fatalf("NoWarmup should keep WarmupSlots at 0, got %d", *e.Sim.WarmupSlots)
	}
	if e.Sim.Seed != 0 {
		t.Fatalf("ZeroSeed should keep Seed at 0, got %d", e.Sim.Seed)
	}
	if *e.Traffic.HotspotFraction != 0 {
		t.Fatalf("ZeroHotspotFraction should keep the fraction at 0, got %g", *e.Traffic.HotspotFraction)
	}
	// A zero-fraction hotspot is a uniform source: it must run and
	// deliver (the old defaulting silently rewrote it to 0.3).
	rep, err := Simulate(Options{
		Architecture: Crossbar, Ports: 8, OfferedLoad: 0.3,
		Traffic: HotspotTraffic, ZeroHotspotFraction: true,
		MeasureSlots: 400, WarmupSlots: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throughput <= 0 {
		t.Fatal("zero-fraction hotspot should still carry traffic")
	}
	// NoWarmup measures from slot 0: cold queues lower early throughput
	// relative to the same run with warmup, and the run must not apply
	// the 300-slot default silently.
	cold, err := Simulate(Options{
		Architecture: Crossbar, Ports: 8, OfferedLoad: 0.3,
		NoWarmup: true, MeasureSlots: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cold.TotalMW() <= 0 {
		t.Fatal("cold-start run should still measure")
	}
}

// TestSimulateDPMReport pins the public DPM surface: a managed run over
// a static model reports StaticMW and the policy ledger, and idle
// gating at low load undercuts the always-on total.
func TestSimulateDPMReport(t *testing.T) {
	model := DefaultModel().WithStaticPower()
	base := Options{
		Architecture: Banyan, Ports: 16, OfferedLoad: 0.1,
		MeasureSlots: 1500, WarmupSlots: 200, Model: &model,
	}
	always := base
	always.DPM = "alwayson"
	alwaysRep, err := Simulate(always)
	if err != nil {
		t.Fatal(err)
	}
	if alwaysRep.StaticMW <= 0 {
		t.Fatal("static model + manager should report StaticMW")
	}
	if alwaysRep.DPM == nil || alwaysRep.DPM.Policy != "alwayson" {
		t.Fatalf("managed run should carry the policy ledger, got %+v", alwaysRep.DPM)
	}
	if alwaysRep.TotalMW() <= alwaysRep.SwitchMW+alwaysRep.BufferMW+alwaysRep.WireMW {
		t.Fatal("TotalMW must include StaticMW")
	}
	gated := base
	gated.DPM = "idlegate"
	gatedRep, err := Simulate(gated)
	if err != nil {
		t.Fatal(err)
	}
	if gatedRep.DPM.GatedPortSlots == 0 {
		t.Fatal("idlegate at 10% load should gate port-slots")
	}
	if gatedRep.DPM.SavedMW <= 0 {
		t.Fatal("idlegate should report positive net savings")
	}
	if gatedRep.TotalMW() >= alwaysRep.TotalMW() {
		t.Fatalf("idlegate total %.4f mW should undercut alwayson %.4f mW",
			gatedRep.TotalMW(), alwaysRep.TotalMW())
	}
	// Unmanaged runs must stay ledger-free with zero static power.
	plain, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	if plain.DPM != nil || plain.StaticMW != 0 {
		t.Fatalf("unmanaged run should have no DPM ledger, got %+v", plain)
	}
	if _, err := Simulate(func() Options { o := base; o.DPM = "perpetualmotion"; return o }()); err == nil {
		t.Fatal("unknown policy should fail")
	}
}

// TestSimulateMatchesScenario pins the facade: Simulate on a set of
// options measures exactly what study.RunScenario measures on the
// scenario those options describe.
func TestSimulateMatchesScenario(t *testing.T) {
	warm := func(w uint64) *uint64 { return &w }
	frac := func(f float64) *float64 { return &f }
	static := DefaultModel().WithStaticPower()
	scaled, err := PerWordBufferModel().WithTechScaling(0.72, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	if scaled, err = scaled.WithBufferAccesses(2); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opt  Options
		sc   study.Scenario
	}{
		{"uniform",
			Options{Architecture: Banyan, Ports: 8, OfferedLoad: 0.3, MeasureSlots: 300, WarmupSlots: 50},
			study.Scenario{Fabric: study.FabricSpec{Arch: "banyan", Ports: 8},
				Traffic: study.TrafficSpec{Kind: "uniform", Load: 0.3},
				Sim:     study.SimSpec{WarmupSlots: warm(50), MeasureSlots: 300, Seed: 1}}},
		{"bursty",
			Options{Architecture: Crossbar, Ports: 8, OfferedLoad: 0.3, Traffic: BurstyTraffic, MeanBurstSlots: 5,
				MeasureSlots: 300, WarmupSlots: 50, Seed: 9},
			study.Scenario{Fabric: study.FabricSpec{Arch: "crossbar", Ports: 8},
				Traffic: study.TrafficSpec{Kind: "bursty", Load: 0.3, MeanBurstSlots: 5},
				Sim:     study.SimSpec{WarmupSlots: warm(50), MeasureSlots: 300, Seed: 9}}},
		{"hotspot",
			Options{Architecture: FullyConnected, Ports: 8, OfferedLoad: 0.3, Traffic: HotspotTraffic,
				HotspotPort: 5, HotspotFraction: 0.5, MeasureSlots: 300, WarmupSlots: 50},
			study.Scenario{Fabric: study.FabricSpec{Arch: "fullyconnected", Ports: 8},
				Traffic: study.TrafficSpec{Kind: "hotspot", Load: 0.3, HotspotPort: 5, HotspotFraction: frac(0.5)},
				Sim:     study.SimSpec{WarmupSlots: warm(50), MeasureSlots: 300, Seed: 1}}},
		{"voq",
			Options{Architecture: Crossbar, Ports: 8, OfferedLoad: 0.9, UseVOQ: true, MeasureSlots: 300, WarmupSlots: 50},
			study.Scenario{Fabric: study.FabricSpec{Arch: "crossbar", Ports: 8}, Queue: "voq",
				Traffic: study.TrafficSpec{Load: 0.9},
				Sim:     study.SimSpec{WarmupSlots: warm(50), MeasureSlots: 300, Seed: 1}}},
		{"dpm",
			Options{Architecture: Banyan, Ports: 8, OfferedLoad: 0.1, DPM: "composite", Model: &static,
				MeasureSlots: 300, WarmupSlots: 50},
			study.Scenario{Model: study.ModelSpec{Static: true}, Fabric: study.FabricSpec{Arch: "banyan", Ports: 8},
				Traffic: study.TrafficSpec{Load: 0.1}, DPM: "composite",
				Sim: study.SimSpec{WarmupSlots: warm(50), MeasureSlots: 300, Seed: 1}}},
		{"nowarmup",
			Options{Architecture: Crossbar, Ports: 8, OfferedLoad: 0.3, NoWarmup: true, MeasureSlots: 300},
			study.Scenario{Fabric: study.FabricSpec{Arch: "crossbar", Ports: 8}, Traffic: study.TrafficSpec{Load: 0.3},
				Sim: study.SimSpec{WarmupSlots: warm(0), MeasureSlots: 300, Seed: 1}}},
		{"zeroseed",
			Options{Architecture: Crossbar, Ports: 8, OfferedLoad: 0.3, ZeroSeed: true, MeasureSlots: 300, WarmupSlots: 50},
			study.Scenario{Fabric: study.FabricSpec{Arch: "crossbar", Ports: 8}, Traffic: study.TrafficSpec{Load: 0.3},
				Sim: study.SimSpec{WarmupSlots: warm(50), MeasureSlots: 300}}},
		{"scaled model",
			Options{Architecture: Banyan, Ports: 8, OfferedLoad: 0.4, Model: &scaled, MeasureSlots: 300, WarmupSlots: 50},
			study.Scenario{Model: study.ModelSpec{Base: "perword", BufferAccesses: 2, TechScale: &study.TechScale{S: 0.72, SV: 0.55}},
				Fabric: study.FabricSpec{Arch: "banyan", Ports: 8}, Traffic: study.TrafficSpec{Load: 0.4},
				Sim: study.SimSpec{WarmupSlots: warm(50), MeasureSlots: 300, Seed: 1}}},
	}
	for _, c := range cases {
		rep, err := Simulate(c.opt)
		if err != nil {
			t.Fatalf("%s: Simulate: %v", c.name, err)
		}
		res, err := study.RunScenario(c.sc)
		if err != nil {
			t.Fatalf("%s: RunScenario: %v", c.name, err)
		}
		want := Report{
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
		got := rep
		got.DPM = nil
		if got != want {
			t.Errorf("%s: Simulate %+v\nRunScenario %+v", c.name, got, want)
		}
		if (rep.DPM == nil) != (res.DPM == nil) {
			t.Fatalf("%s: DPM ledger presence differs", c.name)
		}
		if d := res.DPM; d != nil {
			s := rep.DPM
			if s.Policy != d.Policy || s.GatedPortSlots != d.GatedPortSlots || s.DrowsySlots != d.DrowsySlots ||
				s.StalledSlots != d.StalledSlots || s.Transitions != d.Transitions ||
				s.WakeEvents != d.WakeEvents || s.DVFSShifts != d.DVFSShifts {
				t.Errorf("%s: DPM stats %+v, report %+v", c.name, s, d)
			}
		}
	}
}

func TestModelDerivations(t *testing.T) {
	m, err := DefaultModel().WithTechScaling(0.72, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	// Scaled-down tech must lower analytic energy.
	base, _ := Analytic(Crossbar, 8, DefaultModel())
	scaled, _ := Analytic(Crossbar, 8, m)
	if scaled.WireFJ >= base.WireFJ {
		t.Fatal("scaling down should reduce wire energy")
	}
	if _, err := DefaultModel().WithTechScaling(0, 1); err == nil {
		t.Fatal("bad scaling should fail")
	}
	m2, err := DefaultModel().WithBufferAccesses(2)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := Analytic(Banyan, 16, DefaultModel())
	b2, _ := Analytic(Banyan, 16, m2)
	// Contention-free path has no buffer term, so totals match.
	if b1.TotalFJ() != b2.TotalFJ() {
		t.Fatal("buffer accounting should not change the free path")
	}
	if _, err := DefaultModel().WithBufferAccesses(5); err == nil {
		t.Fatal("5 accesses should fail")
	}
}

func TestPerWordBufferModelSoftensPenalty(t *testing.T) {
	perBit, err := Simulate(Options{
		Architecture: Banyan, Ports: 16, OfferedLoad: 0.5,
		MeasureSlots: 1000, WarmupSlots: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := PerWordBufferModel()
	perWord, err := Simulate(Options{
		Architecture: Banyan, Ports: 16, OfferedLoad: 0.5,
		MeasureSlots: 1000, WarmupSlots: 150, Model: &m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if perWord.BufferMW >= perBit.BufferMW/16 {
		t.Fatalf("per-word buffer power (%g) should be ~32x below per-bit (%g)",
			perWord.BufferMW, perBit.BufferMW)
	}
}

// TestSimulateAgainstAnalytic: at low load on a contention-free fabric the
// measured energy per bit approaches the analytic worst case scaled by the
// ~50% flip activity of random payloads.
func TestSimulateAgainstAnalytic(t *testing.T) {
	rep, err := Simulate(Options{
		Architecture: BatcherBanyan,
		Ports:        16,
		OfferedLoad:  0.1,
		MeasureSlots: 1000,
		WarmupSlots:  150,
	})
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := Analytic(BatcherBanyan, 16, DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	// Measured must be below the worst case but the same order of
	// magnitude (wire flips halve; switch LUTs match).
	if rep.EnergyPerBitFJ >= analytic.TotalFJ() {
		t.Fatalf("measured %g fJ should sit below the analytic worst case %g fJ",
			rep.EnergyPerBitFJ, analytic.TotalFJ())
	}
	if rep.EnergyPerBitFJ < 0.3*analytic.TotalFJ() {
		t.Fatalf("measured %g fJ implausibly far below analytic %g fJ",
			rep.EnergyPerBitFJ, analytic.TotalFJ())
	}
}

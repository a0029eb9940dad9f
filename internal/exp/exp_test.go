package exp

import (
	"bytes"
	"strings"
	"testing"

	"fabricpower/internal/core"
	"fabricpower/internal/router"
	"fabricpower/study"
)

// quickParams keeps test runtime low while leaving enough slots for
// stable statistics.
func quickParams() SimParams {
	return SimParams{WarmupSlots: 150, MeasureSlots: 900, Seed: 7}
}

func TestDefaults(t *testing.T) {
	if len(DefaultSizes()) != 4 || len(DefaultLoads()) != 5 {
		t.Fatal("paper sweep dimensions")
	}
	p := SimParams{}.WithDefaults()
	if p.WarmupSlots == 0 || p.MeasureSlots == 0 || p.CellBits == 0 {
		t.Fatal("defaults not filled")
	}
	if p.Queue != router.FIFO {
		t.Fatal("paper uses FIFO input buffering by default")
	}
}

func fig9ForTest(t *testing.T) *Fig9 {
	t.Helper()
	f, err := RunFig9(study.PaperModel(), []int{4, 16}, []float64{0.1, 0.3, 0.5}, quickParams())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFig9BanyanSuperlinear reproduces §6 observation 1's first half: the
// Banyan's power grows much faster than linearly with throughput (the
// buffer penalty), while the other three stay near-linear (observation 3).
func TestFig9BanyanSuperlinear(t *testing.T) {
	f := fig9ForTest(t)
	for _, n := range []int{4, 16} {
		x, y := f.Series(core.Banyan, n)
		if len(y) != 3 {
			t.Fatalf("banyan series incomplete: %v", y)
		}
		// Throughput rose 5×; superlinear means power rose much more.
		growth := y[len(y)-1] / y[0]
		if growth < 8 {
			t.Errorf("%dx%d banyan growth %.1f, want > 8 (superlinear)", n, n, growth)
		}
		_ = x
		// Linear architectures: high R² on a straight line.
		for _, a := range []core.Architecture{core.Crossbar, core.FullyConnected, core.BatcherBanyan} {
			r2, err := f.LinearityR2(a, n)
			if err != nil {
				t.Fatal(err)
			}
			if r2 < 0.98 {
				t.Errorf("%v %dx%d: R2 = %.4f, want >= 0.98 (§6 obs. 3)", a, n, n, r2)
			}
		}
	}
}

// TestFig9FullyConnectedCheapestSmallN reproduces §6 observation 2 at
// small port counts.
func TestFig9FullyConnectedCheapestSmallN(t *testing.T) {
	f := fig9ForTest(t)
	for _, n := range []int{4, 16} {
		fcPt, ok := f.Point(core.FullyConnected, n, 0.5)
		if !ok {
			t.Fatal("missing point")
		}
		fc := fcPt.Result.Power.TotalMW()
		for _, a := range []core.Architecture{core.Crossbar, core.Banyan, core.BatcherBanyan} {
			pt, ok := f.Point(a, n, 0.5)
			if !ok {
				t.Fatal("missing point")
			}
			if fc >= pt.Result.Power.TotalMW() {
				t.Errorf("%d×%d: fully connected (%.3f mW) should beat %v (%.3f mW)",
					n, n, fc, a, pt.Result.Power.TotalMW())
			}
		}
	}
}

// TestFig9OnlyBanyanBuffers: buffer power appears exactly where
// interconnect contention exists.
func TestFig9OnlyBanyanBuffers(t *testing.T) {
	f := fig9ForTest(t)
	for _, pt := range f.Points {
		if pt.Arch == core.Banyan {
			if pt.Offered >= 0.3 && pt.Result.Power.BufferMW == 0 {
				t.Errorf("banyan at %.0f%% should buffer", pt.Offered*100)
			}
			continue
		}
		if pt.Result.Power.BufferMW != 0 {
			t.Errorf("%v charged buffer power", pt.Arch)
		}
	}
}

func TestFig9RenderAndCSV(t *testing.T) {
	f := fig9ForTest(t)
	var buf bytes.Buffer
	if err := f.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig. 9", "banyan", "buffer_events", "16×16"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	buf.Reset()
	if err := f.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(f.Points) {
		t.Fatalf("CSV rows = %d, want %d", len(lines), 1+len(f.Points))
	}
}

// TestFig10GapNarrows reproduces Fig. 10's headline: the fully-connected
// vs Batcher-Banyan gap decreases monotonically with port count (paper:
// 37% -> 20%; our constants give larger magnitudes, same direction).
func TestFig10GapNarrows(t *testing.T) {
	f, err := RunFig10(study.PaperModel(), []int{4, 8, 16, 32}, 0.5, quickParams())
	if err != nil {
		t.Fatal(err)
	}
	prev := 2.0
	for _, n := range []int{4, 8, 16, 32} {
		gap, err := f.FCBatcherGap(n)
		if err != nil {
			t.Fatal(err)
		}
		if gap <= 0 {
			t.Errorf("%d×%d: FC should cost less than Batcher-Banyan (gap %.3f)", n, n, gap)
		}
		if gap >= prev {
			t.Errorf("%d×%d: gap %.3f did not narrow (prev %.3f)", n, n, gap, prev)
		}
		prev = gap
	}
	var buf bytes.Buffer
	if err := f.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "paper: 37% -> 20%") {
		t.Error("render should cite the paper's gap")
	}
	buf.Reset()
	if err := f.CSV(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestFig10PowerGrowsWithPorts: every architecture's power rises with N
// at fixed load.
func TestFig10PowerGrowsWithPorts(t *testing.T) {
	f, err := RunFig10(study.PaperModel(), []int{4, 16}, 0.5, quickParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range core.Architectures() {
		p4, ok1 := f.Power(a, 4)
		p16, ok2 := f.Power(a, 16)
		if !ok1 || !ok2 {
			t.Fatalf("%v: missing points", a)
		}
		if p16 <= p4 {
			t.Errorf("%v: power should grow with ports (%.3f -> %.3f)", a, p4, p16)
		}
	}
}

// TestCrossoverPerWordAccounting: under the per-word reading of Table 2,
// the Banyan is the cheapest 32×32 fabric at 30% load (§6 obs. 1's
// crossover regime).
func TestCrossoverPerWordAccounting(t *testing.T) {
	c, err := RunCrossover(study.PerWordModel(), 32, []float64{0.10, 0.30}, quickParams())
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range c.Winner {
		if w != core.Banyan {
			t.Errorf("per-word accounting: banyan should win at %.0f%%, got %v", c.Loads[i]*100, w)
		}
	}
	var buf bytes.Buffer
	if err := c.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestCrossoverPerBitAccounting: under the strict per-bit reading the
// buffer penalty moves the crossover to very low loads, and Banyan is no
// longer cheapest at 30%.
func TestCrossoverPerBitAccounting(t *testing.T) {
	c, err := RunCrossover(study.PaperModel(), 32, []float64{0.02, 0.30}, quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if c.Winner[0] != core.Banyan {
		t.Errorf("at 2%% the banyan should still win, got %v", c.Winner[0])
	}
	if c.Winner[1] == core.Banyan {
		t.Error("at 30% the per-bit buffer penalty should dethrone the banyan")
	}
}

// TestSaturationCeiling reproduces the input-buffering limit.
func TestSaturationCeiling(t *testing.T) {
	s, err := RunSaturation(study.PaperModel(), 16, quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if s.Ceiling < 0.55 || s.Ceiling > 0.65 {
		t.Fatalf("ceiling %.3f, want ≈0.60 at N=16", s.Ceiling)
	}
	// Below saturation egress tracks offered.
	if s.Egress[0] < 0.08 || s.Egress[0] > 0.12 {
		t.Fatalf("10%% offered should deliver ≈10%%, got %.3f", s.Egress[0])
	}
	var buf bytes.Buffer
	if err := s.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestBufferAblationDoubles(t *testing.T) {
	a, err := RunBufferAblation(study.PaperModel(), 16, 0.5, quickParams())
	if err != nil {
		t.Fatal(err)
	}
	r := a.TwoAccess.Power.BufferMW / a.OneAccess.Power.BufferMW
	if r < 1.9 || r > 2.1 {
		t.Fatalf("write+read should double buffer power, ratio %.3f", r)
	}
	var buf bytes.Buffer
	if err := a.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFCWireAblationHalves(t *testing.T) {
	a, err := RunFCWireAblation(study.PaperModel(), 16, 0.5, quickParams())
	if err != nil {
		t.Fatal(err)
	}
	// Both runs see the same cells, and ¼N² is exactly half of ½N², so
	// every wire charge halves bit for bit and nothing else moves.
	if a.Worst.Power.WireMW <= 0 || a.Avg.Power.WireMW*2 != a.Worst.Power.WireMW {
		t.Fatalf("average wires should halve wire power exactly: worst %v mW, avg %v mW",
			a.Worst.Power.WireMW, a.Avg.Power.WireMW)
	}
	if a.Avg.Power.SwitchMW != a.Worst.Power.SwitchMW || a.Avg.Power.BufferMW != a.Worst.Power.BufferMW {
		t.Fatalf("the wire model moved switch or buffer power: worst %+v, avg %+v", a.Worst.Power, a.Avg.Power)
	}
	var buf bytes.Buffer
	if err := a.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestQueueAblation(t *testing.T) {
	a, err := RunQueueAblation(study.PaperModel(), 8, quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if a.VOQ.Throughput <= a.FIFO.Throughput+0.1 {
		t.Fatalf("VOQ (%.3f) should clearly beat FIFO (%.3f)", a.VOQ.Throughput, a.FIFO.Throughput)
	}
	var buf bytes.Buffer
	if err := a.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	t2, err := RunTable2(core.PaperModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 4 {
		t.Fatalf("rows = %d", len(t2.Rows))
	}
	var buf bytes.Buffer
	if err := t2.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "320K") {
		t.Error("missing 32×32 row")
	}
}

func TestTable1Characterization(t *testing.T) {
	t1, err := RunTable1(core.PaperModel(), Table1Options{Cycles: 48, BusWidth: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The anchor entry must match the paper exactly after calibration.
	row, ok := t1.Entry("banyan 2x2", "[1]")
	if !ok {
		t.Fatal("banyan [0,1] row missing")
	}
	if d := row.CharFJ - row.PaperFJ; d > 1 || d < -1 {
		t.Fatalf("anchor mismatch: %g vs %g", row.CharFJ, row.PaperFJ)
	}
	// Idle vectors are zero.
	for _, name := range []string{"crossbar 1x1", "banyan 2x2", "batcher 2x2"} {
		if r, ok := t1.Entry(name, "[0]"); !ok || r.CharFJ != 0 {
			t.Errorf("%s idle should be 0, got %+v", name, r)
		}
	}
	// Orderings of Table 1: crosspoint < banyan < batcher (single input),
	// and mux energy grows with N.
	xp, _ := t1.Entry("crossbar 1x1", "[1]")
	bn, _ := t1.Entry("banyan 2x2", "[1]")
	bt, _ := t1.Entry("batcher 2x2", "[1]")
	if !(xp.CharFJ < bn.CharFJ && bn.CharFJ < bt.CharFJ) {
		t.Errorf("ordering violated: %g, %g, %g", xp.CharFJ, bn.CharFJ, bt.CharFJ)
	}
	prev := 0.0
	for _, n := range []int{4, 8, 16, 32} {
		r, ok := t1.Entry("mux N="+itoa(n), "[1 active]")
		if !ok {
			t.Fatalf("mux %d row missing", n)
		}
		if r.CharFJ <= prev {
			t.Errorf("mux energy should grow with N: %g after %g", r.CharFJ, prev)
		}
		prev = r.CharFJ
	}
	// Concurrency discount on the characterized banyan.
	one, _ := t1.Entry("banyan 2x2", "[1]")
	two, _ := t1.Entry("banyan 2x2", "[11]")
	if !(two.CharFJ > one.CharFJ && two.CharFJ < 2*one.CharFJ) {
		t.Errorf("concurrency discount violated: %g vs %g", two.CharFJ, one.CharFJ)
	}
	var buf bytes.Buffer
	if err := t1.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "calibration") {
		t.Error("render should state the calibration factor")
	}
}

func itoa(n int) string {
	switch n {
	case 4:
		return "4"
	case 8:
		return "8"
	case 16:
		return "16"
	case 32:
		return "32"
	}
	return ""
}

func TestTechReport(t *testing.T) {
	var buf bytes.Buffer
	if err := TechReport(core.PaperModel(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"87", "E_T_bit", "32 bit"} {
		if !strings.Contains(out, want) {
			t.Errorf("tech report missing %q", want)
		}
	}
}

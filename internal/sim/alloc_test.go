package sim

import (
	"fmt"
	"runtime"
	"testing"

	"fabricpower/internal/core"
	"fabricpower/internal/fabric"
	"fabricpower/internal/packet"
	"fabricpower/internal/router"
	"fabricpower/internal/tech"
	"fabricpower/internal/traffic"
)

// TestRunAllocationFree pins the single-router cell path at zero
// allocations per slot once warm: generators recycle cells through
// their slabs, Run releases every delivered and refused cell, the
// ingress queues are rings and the arbiters reuse their scratch. The
// check is end to end — the difference in heap allocations between a
// short and a long run of the same point — so set-up cost cancels and
// only per-slot cost remains. A slab still grows whenever the number of
// live cells reaches a new peak; under packet trains an unbounded FIFO
// backlog does so in rare jumps of a few dozen cells (about every
// 10,000 slots here), which the 0.01-per-slot bound absorbs over the
// 8,000 extra slots while a per-slot allocation would not.
//
// At 80% load a FIFO router is past its head-of-line saturation
// throughput, so an unbounded queue grows for as long as the run lasts
// and every cell it holds is live: those cases bound the ingress queues
// (64 cells), as a real router's buffers are, and the refused cells go
// back to the slab.
func TestRunAllocationFree(t *testing.T) {
	const (
		ports  = 4
		warmup = 2000
		short  = 1000
		long   = 9000
	)
	cellCfg := packet.Config{CellBits: 512, BusWidth: 32}
	for _, load := range []float64{0.3, 0.5, 0.8} {
		maxQueue := 0
		if load > 0.5 {
			maxQueue = 64
		}
		rec, err := traffic.NewInjector(ports, load, cellCfg, nil, 41)
		if err != nil {
			t.Fatal(err)
		}
		tr := traffic.Record(rec, warmup+long)
		gens := map[string]func() (Generator, error){
			"uniform": func() (Generator, error) { return traffic.NewInjector(ports, load, cellCfg, nil, 42) },
			"bursty": func() (Generator, error) {
				return traffic.NewOnOffInjector(ports, 8, load, cellCfg, nil, 43)
			},
			"packet": func() (Generator, error) { return traffic.NewPacketInjector(ports, load, cellCfg, nil, 44) },
			"trace":  func() (Generator, error) { return traffic.NewPlayer(tr, cellCfg) },
		}
		for _, arch := range core.Architectures() {
			for _, queue := range []router.QueueDiscipline{router.FIFO, router.VOQ} {
				for _, kind := range []string{"uniform", "bursty", "packet", "trace"} {
					t.Run(fmt.Sprintf("load=%g/%v/%v/%s", load, arch, queue, kind), func(t *testing.T) {
						mallocs := func(measure uint64) uint64 {
							var m0, m1 runtime.MemStats
							runtime.ReadMemStats(&m0)
							r, err := router.New(router.Config{
								Arch:          arch,
								Fabric:        fabric.Config{Ports: ports, Cell: cellCfg, Model: core.PaperModel()},
								Queue:         queue,
								MaxQueueCells: maxQueue,
							})
							if err != nil {
								t.Fatal(err)
							}
							gen, err := gens[kind]()
							if err != nil {
								t.Fatal(err)
							}
							res, err := Run(r, gen, tech.Default180nm(), cellCfg.CellBits, Options{WarmupSlots: warmup, MeasureSlots: measure})
							if err != nil {
								t.Fatal(err)
							}
							runtime.ReadMemStats(&m1)
							if res.Throughput == 0 {
								t.Fatal("no traffic delivered")
							}
							return m1.Mallocs - m0.Mallocs
						}
						a, b := mallocs(short), mallocs(long)
						perSlot := (float64(b) - float64(a)) / (long - short)
						t.Logf("%d extra allocations over %d extra slots", int64(b)-int64(a), long-short)
						if perSlot >= 0.01 {
							t.Errorf("%d extra allocations over %d extra slots (%.4f per slot), want < 0.01", int64(b)-int64(a), long-short, perSlot)
						}
					})
				}
			}
		}
	}
}

// ledgerGen wraps a generator and tracks ownership: every cell it hands
// out must come back through Release exactly once.
type ledgerGen struct {
	Generator
	t                   *testing.T
	live                map[*packet.Cell]bool
	generated, released uint64
}

func (g *ledgerGen) Generate(slot uint64) []*packet.Cell {
	cells := g.Generator.Generate(slot)
	for _, c := range cells {
		if g.live[c] {
			g.t.Fatalf("slot %d: generator handed out cell %d while it was still live", slot, c.ID)
		}
		g.live[c] = true
	}
	g.generated += uint64(len(cells))
	return cells
}

func (g *ledgerGen) Release(c *packet.Cell) {
	if !g.live[c] {
		g.t.Fatalf("cell %d released but not live", c.ID)
	}
	delete(g.live, c)
	g.released++
	g.Generator.Release(c)
}

// TestRunReleasesEachCellOnce drives a router with two-cell ingress
// queues at 90% load, so most slots refuse cells: Run must release
// every refused and every delivered cell exactly once, and with
// recycling on the ledger must still balance — offered = delivered +
// dropped + queued + in flight.
func TestRunReleasesEachCellOnce(t *testing.T) {
	for _, arch := range core.Architectures() {
		t.Run(arch.String(), func(t *testing.T) {
			cellCfg := packet.Config{CellBits: 256, BusWidth: 32}
			r, err := router.New(router.Config{
				Arch:          arch,
				Fabric:        fabric.Config{Ports: 8, Cell: cellCfg, Model: core.PaperModel()},
				MaxQueueCells: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			inner, err := traffic.NewInjector(8, 0.9, cellCfg, nil, 9)
			if err != nil {
				t.Fatal(err)
			}
			gen := &ledgerGen{Generator: inner, t: t, live: map[*packet.Cell]bool{}}
			res, err := Run(r, gen, tech.Default180nm(), cellCfg.CellBits, Options{NoWarmup: true, MeasureSlots: 3000})
			if err != nil {
				t.Fatal(err)
			}
			m := r.Metrics()
			if res.DroppedCells == 0 {
				t.Fatal("two-cell queues at 90% load refused nothing")
			}
			if got, want := gen.released, m.DeliveredCells+m.DroppedCells; got != want {
				t.Errorf("released %d cells, want delivered %d + dropped %d", got, m.DeliveredCells, m.DroppedCells)
			}
			held := uint64(r.QueuedCells() + r.InFlight())
			if got := uint64(len(gen.live)); got != held {
				t.Errorf("%d cells unreleased, but the router holds %d", got, held)
			}
			if gen.generated != m.DeliveredCells+m.DroppedCells+held {
				t.Errorf("offered %d != delivered %d + dropped %d + queued/in flight %d",
					gen.generated, m.DeliveredCells, m.DroppedCells, held)
			}
		})
	}
}

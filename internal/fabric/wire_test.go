package fabric

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fabricpower/internal/core"
	"fabricpower/internal/packet"
)

// driveWireTraffic offers the same cell stream to a fresh fabric on every
// call — random endpoints at about 50% load, one cell per destination
// per slot, full-size 1024-bit payloads — then drains it, and returns
// the energy ledger. With recycle, cells come from a packet.Slab and
// every delivered or refused cell goes back to the slab, so later cells
// reuse released ones and must not keep a stale cached flip count.
// Otherwise every cell is a fresh literal. Both draw the payload from
// rng in the same way, so both runs see the same bits.
func driveWireTraffic(t *testing.T, arch core.Architecture, ports int, recycle bool) core.Breakdown {
	t.Helper()
	geo := packet.DefaultConfig()
	f, err := New(arch, Config{Ports: ports, Cell: geo, Model: core.PaperModel()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(ports)*131 + int64(arch)))
	slab := packet.NewSlab(geo.Words())
	release := func(c *packet.Cell) {
		if recycle {
			slab.Put(c)
		}
	}
	destBusy := make([]bool, ports)
	id := uint64(0)
	const slots = 400
	for slot := uint64(0); slot < slots; slot++ {
		for i := range destBusy {
			destBusy[i] = false
		}
		for p := 0; p < ports; p++ {
			if rng.Intn(2) == 0 {
				continue
			}
			d := rng.Intn(ports)
			if destBusy[d] {
				continue
			}
			destBusy[d] = true
			id++
			var c *packet.Cell
			if recycle {
				c = slab.GetRandom(rng, id, p, d, slot)
			} else {
				c = &packet.Cell{ID: id, Src: p, Dest: d, CreatedSlot: slot, Payload: packet.RandomPayload(rng, geo.Words())}
			}
			if !f.Offer(c) {
				release(c)
			}
		}
		for _, c := range f.Step(slot) {
			release(c)
		}
	}
	for slot := uint64(slots); f.InFlight() > 0; slot++ {
		if slot > 10*slots {
			t.Fatalf("%v/%d: %d cells still in flight after draining", arch, ports, f.InFlight())
		}
		for _, c := range f.Step(slot) {
			release(c)
		}
	}
	return f.Energy()
}

// wireReference is the energy ledger of driveWireTraffic's stream,
// recorded from fabrics whose wire banks rescanned the payload word by
// word on every crossing with packet.FlipsThrough(held, c.Payload), the
// reference definition. Flip counts are integers, so charging the
// cached count must reproduce these floats bit for bit.
var wireReference = map[string]core.Breakdown{
	"crossbar/8":        {SwitchFJ: 2.30506496e+09, BufferFJ: 0, WireFJ: 3.651995128320001e+09},
	"crossbar/32":       {SwitchFJ: 3.64773376e+10, BufferFJ: 0, WireFJ: 5.780113422335998e+10},
	"fullyconnected/8":  {SwitchFJ: 1.022580736e+09, BufferFJ: 0, WireFJ: 1.8209752703999994e+09},
	"fullyconnected/32": {SwitchFJ: 1.3134336e+10, BufferFJ: 0, WireFJ: 1.1653612793855989e+11},
	"banyan/8":          {SwitchFJ: 4.023745536e+09, BufferFJ: 5.30432e+10, WireFJ: 1.577912909760005e+09},
	"banyan/32":         {SwitchFJ: 2.700393984e+10, BufferFJ: 7.369974224773577e+11, WireFJ: 2.830620171455994e+10},
	"batcherbanyan/8":   {SwitchFJ: 1.3230886912e+10, BufferFJ: 0, WireFJ: 4.184790730559995e+09},
	"batcherbanyan/32":  {SwitchFJ: 1.13186041856e+11, BufferFJ: 0, WireFJ: 7.920753020928047e+10},
}

// TestWireEnergyBitIdentical pins every fabric's per-component energy,
// bit for bit, to the word-by-word reference for the same offered cells,
// whether the cells' flip counts were cached at the draw (slab cells,
// recycled after delivery) or on their first crossing (literal cells).
func TestWireEnergyBitIdentical(t *testing.T) {
	for _, arch := range core.Architectures() {
		for _, ports := range []int{8, 32} {
			key := fmt.Sprintf("%v/%d", arch, ports)
			t.Run(key, func(t *testing.T) {
				want, ok := wireReference[key]
				if !ok {
					t.Fatalf("no reference ledger for %s", key)
				}
				for _, recycle := range []bool{true, false} {
					got := driveWireTraffic(t, arch, ports, recycle)
					if got.WireFJ == 0 {
						t.Fatalf("recycle=%v: no wire energy charged", recycle)
					}
					for _, c := range []struct {
						name      string
						got, want float64
					}{
						{"switch", got.SwitchFJ, want.SwitchFJ},
						{"buffer", got.BufferFJ, want.BufferFJ},
						{"wire", got.WireFJ, want.WireFJ},
					} {
						if math.Float64bits(c.got) != math.Float64bits(c.want) {
							t.Errorf("recycle=%v: %s energy %v fJ, reference %v fJ", recycle, c.name, c.got, c.want)
						}
					}
				}
			})
		}
	}
}

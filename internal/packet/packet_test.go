package packet

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{CellBits: 1024, BusWidth: 0},
		{CellBits: 1024, BusWidth: 64},
		{CellBits: 0, BusWidth: 32},
		{CellBits: 100, BusWidth: 32}, // not a multiple
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should fail", c)
		}
	}
	if DefaultConfig().Words() != 32 {
		t.Fatalf("default words = %d, want 32", DefaultConfig().Words())
	}
}

func TestFlipCount(t *testing.T) {
	if FlipCount(0, 0) != 0 {
		t.Error("no change, no flips")
	}
	if FlipCount(0, 0xFFFFFFFF) != 32 {
		t.Error("full flip")
	}
	if FlipCount(0b1010, 0b0101) != 4 {
		t.Error("nibble flip")
	}
}

func TestFlipsThrough(t *testing.T) {
	// Zero payload over a zero link: no flips at all.
	flips, last := FlipsThrough(0, ZeroPayload(8))
	if flips != 0 || last != 0 {
		t.Fatalf("zero payload: %d flips", flips)
	}
	// Alternating payload flips all 32 wires every word after the first.
	alt := AlternatingPayload(4) // 0, F, 0, F
	flips, last = FlipsThrough(0, alt)
	if flips != 3*32 {
		t.Fatalf("alternating: %d flips, want 96", flips)
	}
	if last != 0xFFFFFFFF {
		t.Fatalf("link should hold tail word, got %#x", last)
	}
	// Held word carries across cells: a second identical cell starts
	// with a full flip from 0xFFFFFFFF to 0.
	flips, _ = FlipsThrough(last, alt)
	if flips != 4*32 {
		t.Fatalf("second cell: %d flips, want 128", flips)
	}
}

// Property: flips between random words equals popcount of XOR (oracle).
func TestFlipCountProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		n := 0
		for i := 0; i < 32; i++ {
			if (a>>uint(i))&1 != (b>>uint(i))&1 {
				n++
			}
		}
		return FlipCount(a, b) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomPayloadDeterministic(t *testing.T) {
	a := RandomPayload(rand.New(rand.NewSource(5)), 16)
	b := RandomPayload(rand.New(rand.NewSource(5)), 16)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same payload")
		}
	}
}

func TestNewRandomPacket(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p, err := NewRandomPacket(rng, 7, 1, 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if p.ID != 7 || p.Src != 1 || p.Dest != 2 || p.SizeBits != 1000 {
		t.Fatalf("packet fields: %+v", p)
	}
	if len(p.Payload) != (1000+31)/32 {
		t.Fatalf("payload words = %d", len(p.Payload))
	}
	if _, err := NewRandomPacket(rng, 1, 0, 0, 0); err == nil {
		t.Fatal("zero size should fail")
	}
}

func TestSegmentAndReassemble(t *testing.T) {
	cfg := Config{CellBits: 128, BusWidth: 32} // 4 words per cell
	seg, err := NewSegmenter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	p, _ := NewRandomPacket(rng, 42, 0, 3, 10*32) // 10 words -> 3 cells
	cells := seg.Split(nil, p, 100)
	if len(cells) != 3 {
		t.Fatalf("cells = %d, want 3", len(cells))
	}
	for i, c := range cells {
		if c.Dest != 3 || c.PacketID != 42 || c.Seq != i {
			t.Fatalf("cell %d fields: %+v", i, c)
		}
		if c.Bits() != 128 {
			t.Fatalf("cell %d bits = %d", i, c.Bits())
		}
		if c.CreatedSlot != 100 {
			t.Fatalf("cell %d slot = %d", i, c.CreatedSlot)
		}
	}
	if !cells[2].Last || cells[0].Last || cells[1].Last {
		t.Fatal("only the tail cell is Last")
	}
	r := NewReassembler()
	for i, c := range cells {
		got, done := r.Push(c)
		if i < 2 && done {
			t.Fatal("packet completed early")
		}
		if i == 2 {
			if !done {
				t.Fatal("packet should complete on tail cell")
			}
			if got.ID != 42 || got.Dest != 3 {
				t.Fatalf("reassembled fields: %+v", got)
			}
			// Payload prefix must match the original.
			for w := 0; w < len(p.Payload); w++ {
				if got.Payload[w] != p.Payload[w] {
					t.Fatalf("payload word %d mismatch", w)
				}
			}
		}
	}
	if r.PendingPackets() != 0 {
		t.Fatal("reassembler should be empty")
	}
}

func TestReassemblerInterleavedPackets(t *testing.T) {
	cfg := Config{CellBits: 64, BusWidth: 32}
	seg, _ := NewSegmenter(cfg)
	rng := rand.New(rand.NewSource(9))
	p1, _ := NewRandomPacket(rng, 1, 0, 0, 4*32)
	p2, _ := NewRandomPacket(rng, 2, 1, 0, 4*32)
	c1 := seg.Split(nil, p1, 0)
	c2 := seg.Split(nil, p2, 0)
	r := NewReassembler()
	// Interleave: p1c0, p2c0, p1c1(done), p2c1(done).
	if _, done := r.Push(c1[0]); done {
		t.Fatal("early completion")
	}
	if _, done := r.Push(c2[0]); done {
		t.Fatal("early completion")
	}
	if r.PendingPackets() != 2 {
		t.Fatalf("pending = %d", r.PendingPackets())
	}
	got1, done := r.Push(c1[1])
	if !done || got1.ID != 1 {
		t.Fatal("p1 should complete")
	}
	got2, done := r.Push(c2[1])
	if !done || got2.ID != 2 {
		t.Fatal("p2 should complete")
	}
}

func TestCellNativeTrafficPassesThrough(t *testing.T) {
	r := NewReassembler()
	c := &Cell{ID: 5, Src: 1, Dest: 2, Payload: ZeroPayload(4)}
	p, done := r.Push(c)
	if !done || p.ID != 5 || p.SizeBits != 128 {
		t.Fatalf("cell-native push: %+v done=%v", p, done)
	}
}

func TestSegmenterRejectsBadConfig(t *testing.T) {
	if _, err := NewSegmenter(Config{CellBits: 3, BusWidth: 2}); err == nil {
		t.Fatal("bad config should fail")
	}
}

// Property: segmentation followed by reassembly is the identity on payload
// prefix for random packet sizes.
func TestSegmentReassembleRoundTrip(t *testing.T) {
	cfg := Config{CellBits: 128, BusWidth: 32}
	f := func(sizeQ uint16, seed int64) bool {
		size := int(sizeQ%4096) + 1
		seg, err := NewSegmenter(cfg)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		p, err := NewRandomPacket(rng, 99, 0, 1, size)
		if err != nil {
			return false
		}
		cells := seg.Split(nil, p, 0)
		r := NewReassembler()
		var got *Packet
		for _, c := range cells {
			if g, done := r.Push(c); done {
				got = g
			}
		}
		if got == nil || len(got.Payload) < len(p.Payload) {
			return false
		}
		for i := range p.Payload {
			if got.Payload[i] != p.Payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFillRandomMatchesRandomPayload(t *testing.T) {
	want := RandomPayload(rand.New(rand.NewSource(11)), 24)
	got := make([]uint32, 24)
	for i := range got {
		got[i] = 0xdeadbeef // stale words must all be overwritten
	}
	FillRandom(rand.New(rand.NewSource(11)), got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("word %d: FillRandom %#x, RandomPayload %#x", i, got[i], want[i])
		}
	}
}

// TestFillRandomPacketReusesPayload pins the scratch-packet draw: each
// fill consumes rng exactly as RandomPayload does for the packet's word
// count, a smaller packet reuses the scratch payload's backing array,
// and a bad size is refused.
func TestFillRandomPacketReusesPayload(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ref := rand.New(rand.NewSource(3))
	var p Packet
	for _, size := range []int{40 * 32, 5*32 + 1, 12 * 32} {
		before := p.Payload
		if err := FillRandomPacket(rng, &p, 9, 1, 2, size); err != nil {
			t.Fatal(err)
		}
		want := RandomPayload(ref, (size+31)/32)
		if p.ID != 9 || p.Src != 1 || p.Dest != 2 || p.SizeBits != size || len(p.Payload) != len(want) {
			t.Fatalf("size %d: packet %+v", size, p)
		}
		for i := range want {
			if p.Payload[i] != want[i] {
				t.Fatalf("size %d word %d: %#x, want %#x", size, i, p.Payload[i], want[i])
			}
		}
		if cap(before) >= len(want) && &p.Payload[0] != &before[:1][0] {
			t.Fatalf("size %d: payload reallocated although the scratch buffer fit", size)
		}
	}
	if err := FillRandomPacket(rng, &p, 1, 0, 0, 0); err == nil {
		t.Fatal("zero size should fail")
	}
}

func TestSlabRecyclesZeroedCells(t *testing.T) {
	s := NewSlab(8)
	c := s.Get()
	if len(c.Payload) != 8 {
		t.Fatalf("payload has %d words, want 8", len(c.Payload))
	}
	c.ID, c.Src, c.Dest, c.PacketID, c.Seq, c.Last = 9, 1, 2, 3, 4, true
	c.CreatedSlot, c.FlowID, c.Hop = 5, 6, 7
	c.MarkMoved(10)
	FillRandom(rand.New(rand.NewSource(1)), c.Payload)
	buf := &c.Payload[0]
	s.Put(c)
	if s.Free() != 1 {
		t.Fatalf("free = %d after Put, want 1", s.Free())
	}
	r := s.Get()
	if r != c || &r.Payload[0] != buf {
		t.Fatal("Get did not reuse the released cell and its payload buffer")
	}
	if r.ID != 0 || r.Src != 0 || r.Dest != 0 || r.PacketID != 0 || r.Seq != 0 || r.Last ||
		r.CreatedSlot != 0 || r.FlowID != 0 || r.Hop != 0 || r.MovedIn(10) {
		t.Fatalf("recycled cell not zeroed: %+v", r)
	}
	for i, w := range r.Payload {
		if w != 0 {
			t.Fatalf("recycled payload word %d = %#x, want 0", i, w)
		}
	}
	// A recycled cell may be released again.
	s.Put(r)
}

func TestSlabDoublePutPanics(t *testing.T) {
	s := NewSlab(4)
	c := s.Get()
	s.Put(c)
	defer func() {
		if recover() == nil {
			t.Fatal("second Put of the same cell did not panic")
		}
		if s.Free() != 1 {
			t.Fatalf("free = %d after the rejected Put, want 1", s.Free())
		}
	}()
	s.Put(c)
}

func TestSlabMoveFree(t *testing.T) {
	a, b := NewSlab(4), NewSlab(4)
	for i := 0; i < 5; i++ {
		a.Put(&Cell{Payload: make([]uint32, 4)})
	}
	if n := a.MoveFree(b, 3); n != 3 || a.Free() != 2 || b.Free() != 3 {
		t.Fatalf("moved %d, free %d/%d, want 3 and 2/3", n, a.Free(), b.Free())
	}
	if n := a.MoveFree(b, 10); n != 2 || a.Free() != 0 || b.Free() != 5 {
		t.Fatalf("moved %d, free %d/%d, want 2 and 0/5", n, a.Free(), b.Free())
	}
	seen := map[*Cell]bool{}
	for b.Free() > 0 {
		c := b.Get()
		if seen[c] {
			t.Fatal("a moved cell was handed out twice")
		}
		seen[c] = true
	}
}

func TestSplitRecyclesReleasedCells(t *testing.T) {
	cfg := Config{CellBits: 128, BusWidth: 32}
	seg, err := NewSegmenter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	long, _ := NewRandomPacket(rng, 1, 0, 1, 12*32) // 3 cells
	short, _ := NewRandomPacket(rng, 2, 0, 1, 2*32) // 1 cell, zero-padded
	for _, c := range seg.Split(nil, long, 0) {
		seg.Release(c)
	}
	cells := seg.Split(nil, short, 1)
	if len(cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(cells))
	}
	c := cells[0]
	if c.Payload[0] != short.Payload[0] || c.Payload[1] != short.Payload[1] || c.Payload[2] != 0 || c.Payload[3] != 0 {
		t.Fatalf("recycled cell payload %#x, want the short packet's 2 words then zero padding", c.Payload)
	}
	if !c.Last || c.Seq != 0 || c.PacketID != 2 || c.ID != 4 {
		t.Fatalf("recycled cell header %+v", c)
	}
}

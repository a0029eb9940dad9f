package packet

import (
	"math/rand"
	"testing"
)

// checkFlipsFrom asserts that c.FlipsFrom agrees with the reference
// FlipsThrough over c.Payload for a spread of held words, including the
// all-zeros and all-ones extremes.
func checkFlipsFrom(t *testing.T, name string, c *Cell, rng *rand.Rand) {
	t.Helper()
	lasts := []uint32{0, 0xFFFFFFFF}
	for i := 0; i < 16; i++ {
		lasts = append(lasts, rng.Uint32())
	}
	for _, last := range lasts {
		gotF, gotL := c.FlipsFrom(last)
		wantF, wantL := FlipsThrough(last, c.Payload)
		if gotF != wantF || gotL != wantL {
			t.Fatalf("%s, held %#x: FlipsFrom = (%d, %#x), FlipsThrough = (%d, %#x)",
				name, last, gotF, gotL, wantF, wantL)
		}
	}
}

func TestFlipsFromMatchesFlipsThrough(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, words := range []int{1, 2, 7, 32} {
		s := NewSlab(words)
		for i := 0; i < 20; i++ {
			c := s.GetRandom(rng, uint64(i+1), 0, 1, 0)
			checkFlipsFrom(t, "GetRandom", c, rng)
		}
	}
	literals := map[string]*Cell{
		"random literal":  {Payload: RandomPayload(rng, 32)},
		"zero literal":    {Payload: ZeroPayload(32)},
		"alternating":     {Payload: AlternatingPayload(32)},
		"one-word random": {Payload: RandomPayload(rng, 1)},
		"one-word ones":   {Payload: []uint32{0xFFFFFFFF}},
	}
	for name, c := range literals {
		checkFlipsFrom(t, name, c, rng)
	}
	// An empty payload streams nothing: no flips, the held word stays.
	if f, l := (&Cell{}).FlipsFrom(0xABCD); f != 0 || l != 0xABCD {
		t.Fatalf("empty payload: FlipsFrom = (%d, %#x), want (0, 0xabcd)", f, l)
	}
}

// TestFlipsFromSegmenterTail covers Split's cells, whose count is never
// precomputed: a 10-word packet over 4-word cells leaves a tail cell
// with two zero-padding words.
func TestFlipsFromSegmenterTail(t *testing.T) {
	seg, err := NewSegmenter(Config{CellBits: 128, BusWidth: 32})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	for _, size := range []int{10 * 32, 32, 4*32 + 1} {
		p, _ := NewRandomPacket(rng, uint64(size), 0, 1, size)
		cells := seg.Split(nil, p, 0)
		for _, c := range cells {
			checkFlipsFrom(t, "Split cell", c, rng)
		}
		tail := cells[len(cells)-1]
		if tail.Payload[len(tail.Payload)-1] != 0 {
			t.Fatalf("size %d: tail cell is not zero-padded: %#x", size, tail.Payload)
		}
		for _, c := range cells {
			seg.Release(c)
		}
	}
}

// TestFlipsFromRecycledCell pins that a released cell drops its cached
// count: the same cell handed out again with a different payload, by
// GetRandom or by Get, charges its new words.
func TestFlipsFromRecycledCell(t *testing.T) {
	s := NewSlab(32)
	rng := rand.New(rand.NewSource(23))
	c := s.GetRandom(rng, 1, 0, 1, 0)
	checkFlipsFrom(t, "first payload", c, rng)
	s.Put(c)
	if c.inner != 0 {
		t.Fatal("Put kept the cached flip count")
	}
	r := s.GetRandom(rng, 2, 0, 1, 0)
	if r != c {
		t.Fatal("GetRandom did not recycle the released cell")
	}
	checkFlipsFrom(t, "redrawn payload", r, rng)
	s.Put(r)
	z := s.Get()
	if z != c {
		t.Fatal("Get did not recycle the released cell")
	}
	checkFlipsFrom(t, "zeroed payload", z, rng)
	if f, _ := z.FlipsFrom(0); f != 0 {
		t.Fatalf("zeroed recycled cell flips %d bits from a zero link, want 0", f)
	}
}

// TestGetRandomDrawsLikeFillRandom pins GetRandom's use of rng: the
// same payload words as FillRandom, and the same next value drawn after
// them, for fresh and recycled cells alike.
func TestGetRandomDrawsLikeFillRandom(t *testing.T) {
	for _, words := range []int{1, 5, 32} {
		s := NewSlab(words)
		got := rand.New(rand.NewSource(24))
		ref := rand.New(rand.NewSource(24))
		want := make([]uint32, words)
		for i := 0; i < 4; i++ {
			c := s.GetRandom(got, uint64(i+1), 2, 3, uint64(i))
			FillRandom(ref, want)
			for w := range want {
				if c.Payload[w] != want[w] {
					t.Fatalf("%d words, draw %d, word %d: %#x, want %#x", words, i, w, c.Payload[w], want[w])
				}
			}
			if c.ID != uint64(i+1) || c.Src != 2 || c.Dest != 3 || c.CreatedSlot != uint64(i) {
				t.Fatalf("%d words, draw %d: header %+v", words, i, c)
			}
			if g, r := got.Int63(), ref.Int63(); g != r {
				t.Fatalf("%d words, draw %d: next rng value %d, want %d", words, i, g, r)
			}
			s.Put(c)
		}
	}
}

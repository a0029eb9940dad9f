package packet

import "math/rand"

// Slab is a free list of cells whose payload buffers all hold the same
// number of bus words — the fixed-frame pool behind an allocation-free
// cell path. A generator takes a cell with Get, the cell travels
// through ingress queues and the fabric, and whoever retires it
// (delivery, a refused injection, a loss) hands it back with Put; once
// the pool covers the peak number of live cells, no cell or payload is
// allocated again.
//
// The zero Slab is not usable; build one with NewSlab. A Slab is not
// safe for concurrent use — each goroutine that creates or retires
// cells owns its own.
type Slab struct {
	words int
	free  []*Cell
}

// NewSlab returns an empty slab of cells with words-word payloads.
// Nothing is preallocated: cells are created on demand and recycled
// from then on.
func NewSlab(words int) *Slab { return &Slab{words: words} }

// Free returns the number of cells waiting in the free list.
func (s *Slab) Free() int { return len(s.free) }

// Get hands out a zeroed cell: every header field zero and a payload of
// the slab's word count, all zero, reusing a released cell's buffer
// when one is free.
func (s *Slab) Get() *Cell {
	n := len(s.free)
	if n == 0 {
		return &Cell{Payload: make([]uint32, s.words)}
	}
	c := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	c.free = false
	return c
}

// GetRandom takes a cell and stamps it as one injection: the given
// header fields and a payload drawn from rng by FillRandom. Callers
// draw the destination before calling, so the destination precedes the
// payload in rng's stream, as it always has.
func (s *Slab) GetRandom(rng *rand.Rand, id uint64, src, dest int, slot uint64) *Cell {
	c := s.Get()
	c.ID = id
	c.Src = src
	c.Dest = dest
	FillRandom(rng, c.Payload)
	c.CreatedSlot = slot
	return c
}

// Put resets c and returns it to the free list. The caller must hold
// no reference to c afterwards. Putting a cell that is already free is
// an ownership bug — the cell would be handed out twice — and panics.
func (s *Slab) Put(c *Cell) {
	if c.free {
		panic("packet: cell released twice")
	}
	payload := c.Payload
	clear(payload)
	*c = Cell{Payload: payload, free: true}
	s.free = append(s.free, c)
}

// MoveFree transfers up to n free cells from s to dst and returns how
// many moved. Both slabs must share a payload length; the network
// kernel uses it at its slot barrier to hand surplus cells from
// delivering shards to injecting ones.
func (s *Slab) MoveFree(dst *Slab, n int) int {
	if n > len(s.free) {
		n = len(s.free)
	}
	cut := len(s.free) - n
	dst.free = append(dst.free, s.free[cut:]...)
	clear(s.free[cut:])
	s.free = s.free[:cut]
	return n
}

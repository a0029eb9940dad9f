package packet

import (
	"fmt"
	"math/rand"
	"sort"
)

// Packet is a variable-size TCP/IP-like packet before segmentation.
type Packet struct {
	ID       uint64
	Src      int
	Dest     int
	SizeBits int
	// Payload in bus words; the tail word is zero-padded.
	Payload []uint32
}

// NewRandomPacket builds a packet with a random payload of sizeBits.
func NewRandomPacket(rng *rand.Rand, id uint64, src, dest, sizeBits int) (*Packet, error) {
	p := &Packet{}
	if err := FillRandomPacket(rng, p, id, src, dest, sizeBits); err != nil {
		return nil, err
	}
	return p, nil
}

// FillRandomPacket overwrites p with a packet of sizeBits carrying a
// random payload drawn from rng. It reuses p.Payload's backing array
// when it is large enough, so a caller that keeps one scratch Packet
// draws packets without allocating.
func FillRandomPacket(rng *rand.Rand, p *Packet, id uint64, src, dest, sizeBits int) error {
	if sizeBits < 1 {
		return fmt.Errorf("packet: size must be positive, got %d", sizeBits)
	}
	words := (sizeBits + 31) / 32
	payload := p.Payload
	if cap(payload) < words {
		payload = make([]uint32, words)
	}
	*p = Packet{ID: id, Src: src, Dest: dest, SizeBits: sizeBits, Payload: payload[:words]}
	FillRandom(rng, p.Payload)
	return nil
}

// Segmenter splits packets into fixed-size cells at the ingress process
// unit. The final cell is zero-padded; Last marks it for reassembly.
// Cells come from the segmenter's own slab; Release returns them.
type Segmenter struct {
	cfg    Config
	nextID uint64
	slab   *Slab
}

// NewSegmenter returns a segmenter for the cell geometry.
func NewSegmenter(cfg Config) (*Segmenter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Segmenter{cfg: cfg, slab: NewSlab(cfg.Words())}, nil
}

// Split segments one packet into cells, assigning fresh cell IDs, and
// appends them to dst.
func (s *Segmenter) Split(dst []*Cell, p *Packet, createdSlot uint64) []*Cell {
	wordsPerCell := s.cfg.Words()
	nCells := (len(p.Payload) + wordsPerCell - 1) / wordsPerCell
	if nCells == 0 {
		nCells = 1
	}
	for i := 0; i < nCells; i++ {
		c := s.slab.Get()
		copy(c.Payload, p.Payload[min(i*wordsPerCell, len(p.Payload)):])
		s.nextID++
		c.ID = s.nextID
		c.Src = p.Src
		c.Dest = p.Dest
		c.PacketID = p.ID
		c.Seq = i
		c.Last = i == nCells-1
		c.CreatedSlot = createdSlot
		dst = append(dst, c)
	}
	return dst
}

// Release returns a cell Split handed out to the segmenter's slab.
func (s *Segmenter) Release(c *Cell) { s.slab.Put(c) }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Reassembler rebuilds packets from cells at the egress process unit.
// Cells of one packet may interleave with cells of other packets but
// arrive in order per packet (the fabrics preserve per-flow order).
type Reassembler struct {
	pending map[uint64][]*Cell
}

// NewReassembler returns an empty reassembler.
func NewReassembler() *Reassembler {
	return &Reassembler{pending: make(map[uint64][]*Cell)}
}

// Push adds a cell; when the cell completes its packet, the reassembled
// packet is returned. The packet's payload is a copy, but the cells of
// a packet still in progress are held until its last cell arrives, so
// a caller recycling cells releases them only once Push returns their
// packet.
func (r *Reassembler) Push(c *Cell) (*Packet, bool) {
	if c.PacketID == 0 {
		// Cell-native traffic: each cell is its own packet.
		return &Packet{
			ID:       c.ID,
			Src:      c.Src,
			Dest:     c.Dest,
			SizeBits: c.Bits(),
			Payload:  append([]uint32(nil), c.Payload...),
		}, true
	}
	r.pending[c.PacketID] = append(r.pending[c.PacketID], c)
	if !c.Last {
		return nil, false
	}
	cells := r.pending[c.PacketID]
	delete(r.pending, c.PacketID)
	sort.Slice(cells, func(i, j int) bool { return cells[i].Seq < cells[j].Seq })
	var payload []uint32
	for _, cc := range cells {
		payload = append(payload, cc.Payload...)
	}
	return &Packet{
		ID:       c.PacketID,
		Src:      c.Src,
		Dest:     c.Dest,
		SizeBits: len(payload) * 32,
		Payload:  payload,
	}, true
}

// PendingPackets returns the number of partially reassembled packets.
func (r *Reassembler) PendingPackets() int { return len(r.pending) }

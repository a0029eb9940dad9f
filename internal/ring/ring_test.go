package ring

import "testing"

// TestRingWrapsAndGrows drives a zero-value ring through wrap-around and
// doubling with interleaved pushes and pops: entries must leave in push
// order, and a drain must hand every remaining entry over in order and
// leave no slot referencing a departed entry.
func TestRingWrapsAndGrows(t *testing.T) {
	var r Ring[*int]
	var next, want int
	push := func(k int) {
		for i := 0; i < k; i++ {
			next++
			v := next
			r.Push(&v)
		}
	}
	pop := func(k int) {
		for i := 0; i < k; i++ {
			want++
			if got := *r.Front(); got != want {
				t.Fatalf("front %d, want %d", got, want)
			}
			if got := *r.Pop(); got != want {
				t.Fatalf("popped %d, want %d", got, want)
			}
		}
	}
	push(3)
	pop(2)
	push(3) // wraps the 4-entry ring
	pop(1)
	push(6) // grows past 4, then 8, from a wrapped head
	if r.Len() != 9 || len(r.buf) != 16 {
		t.Fatalf("len %d, ring %d; want 9 in 16", r.Len(), len(r.buf))
	}
	pop(4)
	var drained []int
	if n := r.Drain(func(v *int) { drained = append(drained, *v) }); n != 5 {
		t.Fatalf("drained %d entries, want 5", n)
	}
	for i, v := range drained {
		if v != want+i+1 {
			t.Fatalf("drain order %v, want values from %d up", drained, want+1)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("len %d after drain", r.Len())
	}
	for i, v := range r.buf {
		if v != nil {
			t.Fatalf("ring slot %d still references %d after it left the queue", i, *v)
		}
	}
}

// TestRingSegmentsWalkWrappedRun checks the block operations: PushAll
// fills across the wrap point, Segment returns the occupied run as at
// most two slices split there, Discard drops the consumed head, none of
// them reallocates a ring sized by New, and a PushAll that overflows
// grows the ring with the entries in order.
func TestRingSegmentsWalkWrappedRun(t *testing.T) {
	r := New[int](5) // rounds up to 8
	if len(r.buf) != 8 {
		t.Fatalf("New(5) holds %d, want 8", len(r.buf))
	}
	buf := &r.buf[0]
	for v := 1; v <= 6; v++ {
		r.Push(v)
	}
	r.Discard(5)                          // head at 5, one entry left
	r.PushAll([]int{7, 8, 9, 10, 11, 12}) // 6 7 8 | 9 10 11 12 after the wrap
	var got []int
	for off := 0; off < r.Len(); {
		seg := r.Segment(off, r.Len()-off)
		got = append(got, seg...)
		off += len(seg)
	}
	for i, v := range got {
		if v != 6+i {
			t.Fatalf("segments %v, want 6..12 in order", got)
		}
	}
	if len(got) != 7 {
		t.Fatalf("segments cover %d entries, want 7", len(got))
	}
	if first := r.Segment(0, 7); len(first) != 3 {
		t.Fatalf("first segment has %d entries, want 3 up to the wrap", len(first))
	}
	r.Discard(4)
	if r.Len() != 3 || r.Front() != 10 {
		t.Fatalf("after Discard(4): len %d, front %d; want 3, 10", r.Len(), r.Front())
	}
	if &r.buf[0] != buf {
		t.Fatal("a ring kept within its New capacity reallocated")
	}
	for i, v := range r.buf {
		if v != 0 && (v < 10 || v > 12) {
			t.Fatalf("slot %d still holds discarded %d", i, v)
		}
	}
	r.PushAll([]int{13, 14, 15, 16, 17, 18}) // 9 entries: doubles to 16
	if r.Len() != 9 || len(r.buf) != 16 {
		t.Fatalf("len %d, ring %d after overflowing PushAll; want 9 in 16", r.Len(), len(r.buf))
	}
	for want := 10; want <= 18; want++ {
		if got := r.Pop(); got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
	}
}

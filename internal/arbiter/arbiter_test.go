package arbiter

import (
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"
)

func TestFCFSRRGrantsOnePerDest(t *testing.T) {
	a := NewFCFSRR()
	reqs := []Request{
		{Port: 0, Dest: 3, Arrival: 10},
		{Port: 1, Dest: 3, Arrival: 5},
		{Port: 2, Dest: 7, Arrival: 20},
	}
	grants := a.Grant(reqs, 100)
	if len(grants) != 2 {
		t.Fatalf("grants = %d, want 2", len(grants))
	}
	granted := map[int]bool{}
	for _, g := range grants {
		granted[g] = true
	}
	if !granted[1] {
		t.Error("oldest request (port 1, arrival 5) must win dest 3")
	}
	if !granted[2] {
		t.Error("uncontested request must be granted")
	}
}

func TestFCFSRRTieBreakRotates(t *testing.T) {
	// Two requests with identical arrivals: the winner should not always
	// be the same port across slots.
	wins := map[int]int{}
	a := NewFCFSRR()
	for slot := uint64(0); slot < 10; slot++ {
		reqs := []Request{
			{Port: 0, Dest: 1, Arrival: slot},
			{Port: 1, Dest: 1, Arrival: slot},
		}
		g := a.Grant(reqs, slot)
		if len(g) != 1 {
			t.Fatalf("want exactly 1 grant, got %d", len(g))
		}
		wins[reqs[g[0]].Port]++
	}
	if len(wins) < 2 {
		t.Fatalf("round robin should rotate winners, got %v", wins)
	}
}

func TestFCFSRREmpty(t *testing.T) {
	a := NewFCFSRR()
	if g := a.Grant(nil, 0); len(g) != 0 {
		t.Fatal("no requests, no grants")
	}
}

// Property: FCFSRR grants are conflict-free (unique dests, unique ports)
// and always include every uncontested destination.
func TestFCFSRRProperty(t *testing.T) {
	f := func(seed int64, nQ uint8) bool {
		n := int(nQ%16) + 1
		a := NewFCFSRR()
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{
				Port:    i,
				Dest:    int(seed+int64(i*7)) % 8 & 7,
				Arrival: uint64((seed + int64(i*13)) % 50 & 63),
			}
		}
		grants := a.Grant(reqs, 0)
		dests := map[int]bool{}
		ports := map[int]bool{}
		for _, g := range grants {
			r := reqs[g]
			if dests[r.Dest] || ports[r.Port] {
				return false
			}
			dests[r.Dest] = true
			ports[r.Port] = true
		}
		// Every requested destination must receive exactly one grant.
		want := map[int]bool{}
		for _, r := range reqs {
			want[r.Dest] = true
		}
		return len(grants) == len(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestISLIPValidation(t *testing.T) {
	if _, err := NewISLIP(0, 1); err == nil {
		t.Error("0 ports should fail")
	}
	if _, err := NewISLIP(4, 0); err == nil {
		t.Error("0 iterations should fail")
	}
	s, err := NewISLIP(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Match(make([][]bool, 3)); err == nil {
		t.Error("wrong matrix size should fail")
	}
	bad := make([][]bool, 4)
	for i := range bad {
		bad[i] = make([]bool, 3)
	}
	if _, err := s.Match(bad); err == nil {
		t.Error("wrong row size should fail")
	}
}

func fullMatrix(n int) [][]bool {
	m := make([][]bool, n)
	for i := range m {
		m[i] = make([]bool, n)
		for j := range m[i] {
			m[i][j] = true
		}
	}
	return m
}

func TestISLIPFullLoadPerfectMatch(t *testing.T) {
	s, err := NewISLIP(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Under all-to-all requests iSLIP should find a perfect matching
	// once pointers desynchronize; check after a few slots.
	var match []int
	for slot := 0; slot < 8; slot++ {
		match, err = s.Match(fullMatrix(4))
		if err != nil {
			t.Fatal(err)
		}
	}
	matched := 0
	seen := map[int]bool{}
	for _, o := range match {
		if o >= 0 {
			matched++
			if seen[o] {
				t.Fatal("output matched twice")
			}
			seen[o] = true
		}
	}
	if matched != 4 {
		t.Fatalf("desynchronized iSLIP should match all 4, got %d", matched)
	}
}

func TestISLIPEmptyRequests(t *testing.T) {
	s, _ := NewISLIP(4, 2)
	m, err := s.Match(make([][]bool, 4))
	if err == nil {
		_ = m
		t.Fatal("rows of wrong length should fail")
	}
	empty := make([][]bool, 4)
	for i := range empty {
		empty[i] = make([]bool, 4)
	}
	match, err := s.Match(empty)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range match {
		if o != -1 {
			t.Fatal("no requests, no matches")
		}
	}
}

// Property: iSLIP matchings are always conflict-free and only match
// requested pairs.
func TestISLIPMatchingProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 8
		s, err := NewISLIP(n, 2)
		if err != nil {
			return false
		}
		rngState := seed
		next := func() int64 {
			rngState = rngState*6364136223846793005 + 1442695040888963407
			return rngState
		}
		req := make([][]bool, n)
		for i := range req {
			req[i] = make([]bool, n)
			for j := range req[i] {
				req[i][j] = next()&3 == 0
			}
		}
		match, err := s.Match(req)
		if err != nil {
			return false
		}
		outSeen := map[int]bool{}
		for i, o := range match {
			if o == -1 {
				continue
			}
			if !req[i][o] || outSeen[o] {
				return false
			}
			outSeen[o] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestISLIPMatchAllocationFree pins the VOQ matcher's hot path: its
// match vectors and per-iteration grant scratch are reused, so a warm
// Match never touches the allocator.
func TestISLIPMatchAllocationFree(t *testing.T) {
	s, err := NewISLIP(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	req := fullMatrix(16)
	if _, err := s.Match(req); err != nil { // warm the scratch
		t.Fatal(err)
	}
	// Count exactly: testing.AllocsPerRun rounds the per-call average
	// down, so it would miss an allocation on most but not all calls.
	// The counter is process-wide; holding off garbage collection keeps
	// the runtime's post-collection cleanups out of the window.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 200; i++ {
		if _, err := s.Match(req); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	if n := m1.Mallocs - m0.Mallocs; n != 0 {
		t.Errorf("200 Match calls made %d allocations, want 0", n)
	}
}

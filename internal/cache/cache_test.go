package cache

import "testing"

func skylakeHierarchy() *Hierarchy {
	return NewHierarchy(200,
		Config{Name: "L1d", Size: 32 << 10, Ways: 8, Latency: 4},
		Config{Name: "L2", Size: 256 << 10, Ways: 8, Latency: 12},
		Config{Name: "L3", Size: 1 << 20, Ways: 16, Latency: 36},
	)
}

func TestColdMissThenHit(t *testing.T) {
	h := skylakeHierarchy()
	done := h.Access(0x1000, 0)
	want := int64(4 + 12 + 36 + 200)
	if done != want {
		t.Errorf("cold miss done at %d, want %d", done, want)
	}
	// Second access: L1 hit.
	done = h.Access(0x1000, done)
	if got := done - (4 + 12 + 36 + 200); got != 4 {
		t.Errorf("L1 hit latency = %d, want 4", got)
	}
	if h.Levels[0].Misses != 1 || h.Levels[0].Accesses != 2 {
		t.Errorf("L1 stats = %d/%d, want 1 miss / 2 accesses", h.Levels[0].Misses, h.Levels[0].Accesses)
	}
}

func TestSameLineHits(t *testing.T) {
	h := skylakeHierarchy()
	h.Access(0x1000, 0)
	// Another address in the same 64B line must hit.
	start := int64(1000)
	done := h.Access(0x1038, start)
	if done-start != 4 {
		t.Errorf("same-line access latency = %d, want 4", done-start)
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	h := skylakeHierarchy()
	base := int64(0)
	h.Access(base, 0)
	// Evict base from L1 (8 ways): touch 9 conflicting lines. L1 has
	// 32KB/64B/8 = 64 sets; conflicting stride = 64*64 = 4096.
	for i := 1; i <= 8; i++ {
		h.Access(base+int64(i)*4096, 10_000*int64(i))
	}
	if h.Levels[0].Contains(base) {
		t.Fatal("base line still in L1 after conflict evictions")
	}
	if !h.Levels[1].Contains(base) {
		t.Fatal("base line lost from L2")
	}
	start := int64(1_000_000)
	done := h.Access(base, start)
	if done-start != 4+12 {
		t.Errorf("L2 hit latency = %d, want 16", done-start)
	}
}

func TestInFlightFillPaysRemainingTime(t *testing.T) {
	h := skylakeHierarchy()
	h.Access(0x2000, 0) // ready at 252
	start := int64(100)
	done := h.Access(0x2000, start) // L1 hit on in-flight line
	if done != 252 {
		t.Errorf("MSHR-style hit done at %d, want 252", done)
	}
	// After the fill completes, normal hit latency applies.
	done = h.Access(0x2000, 300)
	if done != 304 {
		t.Errorf("post-fill hit done at %d, want 304", done)
	}
}

func TestPrefetchHidesLatency(t *testing.T) {
	h := skylakeHierarchy()
	h.Prefetch(0x3000, 0)
	// Demand access long after the prefetch completed: full L1 hit.
	done := h.Access(0x3000, 1000)
	if done != 1004 {
		t.Errorf("post-prefetch access done at %d, want 1004", done)
	}
	if h.PrefetchIssued != 1 {
		t.Errorf("PrefetchIssued = %d, want 1", h.PrefetchIssued)
	}
	// Demand access while the prefetch is in flight: partial hiding.
	h.Prefetch(0x9000, 0)
	done = h.Access(0x9000, 100)
	if done != 252 {
		t.Errorf("in-flight prefetch hit done at %d, want 252", done)
	}
	if h.PrefetchUseful != 1 {
		t.Errorf("PrefetchUseful = %d, want 1", h.PrefetchUseful)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := New("tiny", 2*LineSize, 2, 1) // 1 set, 2 ways
	set := c.slot(c.materialize(0) - 1)
	c.install(set, 0, 0)
	c.install(set, 1, 0)
	// Touch line 0 so line 1 becomes LRU.
	ln := lookup(set, 0)
	if ln == nil {
		t.Fatal("line 0 missing")
	}
	c.lruClock++
	ln.lastUse = c.lruClock
	c.install(set, 2, 0)
	if !c.Contains(0) {
		t.Error("MRU line evicted")
	}
	if c.Contains(1 * LineSize) {
		t.Error("LRU line survived")
	}
}

func TestResetClearsStats(t *testing.T) {
	h := skylakeHierarchy()
	h.Access(0x100, 0)
	h.Prefetch(0x5000, 0)
	h.Reset()
	if h.Levels[0].Accesses != 0 || h.MemAccs != 0 || h.PrefetchIssued != 0 {
		t.Error("Reset did not clear statistics")
	}
	if !h.Levels[0].Contains(0x100) {
		t.Error("Reset must keep contents")
	}
}

// benchStream is a deterministic access stream with a data-like mix: a
// 48 KB working set swept with a stride (L1 and L2 hits), a hot 4 KB block,
// and scattered accesses over 8 MB (L3 and memory misses).
func benchStream() []int64 {
	s := make([]int64, 1<<16)
	x := uint64(1)
	for i := range s {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		switch i % 8 {
		case 0:
			s[i] = int64(x % (8 << 20))
		case 1, 2:
			s[i] = int64(x % (4 << 10))
		default:
			s[i] = int64(i*24) % (48 << 10)
		}
	}
	return s
}

// BenchmarkHierarchyAccess reports the cost of one demand access to a
// Skylake data hierarchy. fresh starts a new hierarchy every 64 Ki accesses,
// construction included, so first-touch costs count; warmed keeps replaying
// the stream over one hierarchy that has already seen it.
func BenchmarkHierarchyAccess(b *testing.B) {
	stream := benchStream()
	run := func(b *testing.B, fresh bool) {
		h := skylakeHierarchy()
		if !fresh {
			for i, a := range stream {
				h.Access(a, int64(i))
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % len(stream)
			if k == 0 && fresh && i > 0 {
				h = skylakeHierarchy()
			}
			h.Access(stream[k], int64(i))
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
	}
	b.Run("fresh", func(b *testing.B) { run(b, true) })
	b.Run("warmed", func(b *testing.B) { run(b, false) })
}

// Package cache models the memory hierarchy of the simulated core: set
// associative L1i/L1d/L2/L3 caches with LRU replacement and per-line fill
// timing, chained into a Hierarchy whose latencies follow the paper's
// Table 2 (L1 4clk, L2 12clk, L3 36clk, then main memory).
//
// Timing model: an access at cycle c that misses at every level installs
// the line everywhere with a readiness timestamp; a later access to a line
// still in flight (an MSHR hit) pays only the remaining latency.
package cache

// LineSize is the cache line size in bytes.
const LineSize = 64

type line struct {
	tag     int64
	valid   bool
	lastUse int64 // LRU clock
	readyAt int64 // cycle the fill completes
}

// Cache is one set-associative level.
type Cache struct {
	name     string
	sets     int
	setMask  uint64 // sets-1 when sets is a power of two, else 0
	ways     int
	latency  int64
	lines    []line // sets × ways; frozen shared storage in a COW clone
	lruClock int64

	// shift lazily rebases fill timestamps: a line's effective readiness is
	// line.readyAt + shift, and installs store readyAt - shift, so ShiftClock
	// is O(1) instead of a pass over every line.
	shift int64

	// Copy-on-write state, set only in clones made with CloneCOW: parent is
	// the frozen base this clone overlays (itself possibly a COW clone,
	// forming a chain down to a root that owns its lines), ownIdx maps a set
	// index to 1+slot in owned, and owned holds the materialized (privately
	// writable) sets, ways lines each. A nil ownIdx means the cache owns
	// lines outright. A set is resolved at the nearest chain level that has
	// materialized it; every level below a clone must stay frozen while the
	// clone is live.
	parent *Cache
	ownIdx []int32
	owned  []line

	// Statistics.
	Accesses int64
	Misses   int64
}

// New builds a cache with the given total size in bytes, associativity and
// hit latency in cycles.
func New(name string, sizeBytes, ways int, latency int64) *Cache {
	sets := sizeBytes / LineSize / ways
	if sets < 1 {
		sets = 1
	}
	c := &Cache{
		name:    name,
		sets:    sets,
		ways:    ways,
		latency: latency,
		lines:   make([]line, sets*ways),
	}
	if sets&(sets-1) == 0 {
		c.setMask = uint64(sets - 1)
	}
	return c
}

// Name returns the level's name ("L1d", "L2", …).
func (c *Cache) Name() string { return c.name }

// Latency returns the level's hit latency.
func (c *Cache) Latency() int64 { return c.latency }

func (c *Cache) set(addr int64) []line {
	blk := uint64(addr / LineSize)
	// A power-of-two set count — every stock geometry — indexes with a mask
	// instead of a division on the simulator's hottest path.
	var s int
	if c.setMask != 0 {
		s = int(blk & c.setMask)
	} else {
		s = int(blk % uint64(c.sets))
	}
	if c.ownIdx == nil {
		return c.lines[s*c.ways : (s+1)*c.ways]
	}
	if idx := c.ownIdx[s]; idx != 0 {
		off := int(idx-1) * c.ways
		return c.owned[off : off+c.ways]
	}
	// First touch of this set: materialize a private copy. Even a lookup
	// must, since a hit updates the line's LRU stamp.
	off := len(c.owned)
	c.owned = append(c.owned, c.resolveSet(s)...)
	c.ownIdx[s] = int32(off/c.ways) + 1
	return c.owned[off : off+c.ways]
}

// resolveSet returns set s as seen through the COW chain, without
// materializing it here: the nearest level that owns or has materialized the
// set wins. Only valid on a COW clone (ownIdx non-nil) that has not
// materialized s itself. The returned slice aliases frozen storage.
func (c *Cache) resolveSet(s int) []line {
	for p := c.parent; ; p = p.parent {
		if p.ownIdx == nil {
			return p.lines[s*p.ways : (s+1)*p.ways]
		}
		if idx := p.ownIdx[s]; idx != 0 {
			off := int(idx-1) * p.ways
			return p.owned[off : off+p.ways]
		}
	}
}

// lookup returns the way holding addr, or nil.
func (c *Cache) lookup(addr int64) *line {
	tag := addr / LineSize
	set := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

// install places addr's line into the cache with the given readiness time,
// evicting the LRU way.
func (c *Cache) install(addr, readyAt int64) *line {
	tag := addr / LineSize
	set := c.set(addr)
	victim := &set[0]
	for i := range set {
		if !set[i].valid {
			victim = &set[i]
			break
		}
		if set[i].lastUse < victim.lastUse {
			victim = &set[i]
		}
	}
	c.lruClock++
	*victim = line{tag: tag, valid: true, lastUse: c.lruClock, readyAt: readyAt - c.shift}
	return victim
}

// Contains reports whether addr's line is resident (regardless of fill
// completion); used by tests and the prefetcher.
func (c *Cache) Contains(addr int64) bool { return c.lookup(addr) != nil }

// Clone returns an independent deep copy of the level: contents, LRU order,
// fill timestamps and statistics. Cloning a COW clone flattens its chain.
func (c *Cache) Clone() *Cache {
	cp := *c
	if c.ownIdx == nil {
		cp.lines = append([]line(nil), c.lines...)
		return &cp
	}
	cp.lines = make([]line, c.sets*c.ways)
	for s := 0; s < c.sets; s++ {
		var src []line
		if idx := c.ownIdx[s]; idx != 0 {
			src = c.owned[int(idx-1)*c.ways : int(idx)*c.ways]
		} else {
			src = c.resolveSet(s)
		}
		copy(cp.lines[s*c.ways:(s+1)*c.ways], src)
	}
	cp.parent, cp.ownIdx, cp.owned = nil, nil, nil
	return &cp
}

// CloneCOW returns a copy-on-write clone layered over c: it resolves sets
// through c (and c's own chain, if any) and materializes a set privately the
// first time it is touched. c — the whole chain below the clone — must not
// be mutated while the clone is live; sampled simulation layers clones over
// frozen warm-state captures, which satisfies this. A detailed window
// touches a tiny fraction of a large cache's sets, so a COW clone replaces
// megabytes of line copying per window with one sets-sized index.
func (c *Cache) CloneCOW() *Cache {
	// The clone expects to touch about as many sets as c materialized over
	// its own parent: reserve that much so its overlay grows without
	// repeated copying.
	cp := &Cache{owned: make([]line, 0, len(c.owned))}
	cp.ResetCOW(c)
	return cp
}

// ResetCOW turns c into a copy-on-write clone layered over parent, exactly
// as parent.CloneCOW() would build it, but keeping c's overlay buffers (the
// set index and the materialized-set storage) when they are large enough.
// c must be a private clone no other cache layers over; sampled simulation
// recycles one window core's caches across windows this way.
func (c *Cache) ResetCOW(parent *Cache) {
	idx, owned := c.ownIdx, c.owned
	*c = *parent
	c.parent = parent
	c.lines = nil // sets resolve through the chain; avoid stale shortcuts
	if cap(idx) >= parent.sets {
		idx = idx[:parent.sets]
		clear(idx)
	} else {
		idx = make([]int32, parent.sets)
	}
	c.ownIdx = idx
	c.owned = owned[:0]
}

// shiftClock rebases every valid line's fill-completion timestamp by delta
// cycles; lastUse and lruClock are ordinal (access order, not cycles) and
// stay put. The rebase is a lazy O(1) offset applied wherever readyAt is
// read or written.
func (c *Cache) shiftClock(delta int64) { c.shift += delta }

// Hierarchy chains cache levels over a fixed-latency main memory.
type Hierarchy struct {
	Levels  []*Cache
	MemLat  int64
	MemAccs int64 // accesses that reached main memory

	// PrefetchIssued / PrefetchUseful count prefetcher activity for the
	// power model and statistics.
	PrefetchIssued int64
	PrefetchUseful int64
}

// Config holds one level's geometry.
type Config struct {
	Name    string
	Size    int
	Ways    int
	Latency int64
}

// NewHierarchy builds a hierarchy from level configs (ordered L1 → last
// level) and a main-memory latency.
func NewHierarchy(memLat int64, levels ...Config) *Hierarchy {
	h := &Hierarchy{MemLat: memLat}
	for _, l := range levels {
		h.Levels = append(h.Levels, New(l.Name, l.Size, l.Ways, l.Latency))
	}
	return h
}

// Access performs a demand access to addr at the given cycle and returns
// the cycle at which the data is available. Lines are installed at every
// level on the fill path (inclusive hierarchy).
func (h *Hierarchy) Access(addr, cycle int64) (doneAt int64) {
	return h.access(addr, cycle, false)
}

// Prefetch installs addr's line as if demanded at cycle, without polluting
// demand statistics beyond the levels it fills. Prefetches fill starting at
// the first level that misses.
func (h *Hierarchy) Prefetch(addr, cycle int64) {
	h.PrefetchIssued++
	h.access(addr, cycle, true)
}

// maxStackLevels is how many missed levels access tracks without touching
// the heap; every hierarchy the core builds has at most three.
const maxStackLevels = 3

func (h *Hierarchy) access(addr, cycle int64, prefetch bool) int64 {
	elapsed := int64(0)
	var missBuf [maxStackLevels]*Cache
	missLevels := missBuf[:0]
	for _, c := range h.Levels {
		if !prefetch {
			c.Accesses++
		}
		elapsed += c.latency
		if ln := c.lookup(addr); ln != nil {
			c.lruClock++
			ln.lastUse = c.lruClock
			ready := cycle + elapsed
			if eff := ln.readyAt + c.shift; eff > ready {
				ready = eff // in-flight fill: pay the remaining time
			}
			if !prefetch && ln.readyAt+c.shift > cycle && len(missLevels) == 0 {
				// Demand hit on an in-flight prefetch: it was useful.
				h.PrefetchUseful++
			}
			h.fill(missLevels, addr, ready)
			return ready
		}
		if !prefetch {
			c.Misses++
		}
		missLevels = append(missLevels, c)
	}
	if !prefetch {
		h.MemAccs++
	}
	ready := cycle + elapsed + h.MemLat
	h.fill(missLevels, addr, ready)
	return ready
}

func (h *Hierarchy) fill(levels []*Cache, addr, readyAt int64) {
	for _, c := range levels {
		c.install(addr, readyAt)
	}
}

// Clone returns an independent deep copy of the whole hierarchy. Sampled
// simulation uses it to capture functionally-warmed cache state once and
// reuse it across the configurations and representative windows that share
// the same warming input.
func (h *Hierarchy) Clone() *Hierarchy {
	cp := *h
	cp.Levels = make([]*Cache, len(h.Levels))
	for i, c := range h.Levels {
		cp.Levels[i] = c.Clone()
	}
	return &cp
}

// CloneCOW returns a copy-on-write copy of the whole hierarchy (see
// Cache.CloneCOW): the parent must stay frozen while the clone is live.
// Detailed sample windows use this to start from a captured warm state
// without copying every line of the large lower levels.
func (h *Hierarchy) CloneCOW() *Hierarchy {
	cp := *h
	cp.Levels = make([]*Cache, len(h.Levels))
	for i, c := range h.Levels {
		cp.Levels[i] = c.CloneCOW()
	}
	return &cp
}

// ResetCOW turns h into a copy-on-write copy of parent (see
// Cache.ResetCOW), reusing h's level objects and their overlay buffers. h
// must be a private hierarchy that nothing else layers over or shares.
func (h *Hierarchy) ResetCOW(parent *Hierarchy) {
	levels := h.Levels
	*h = *parent
	if len(levels) != len(parent.Levels) {
		levels = make([]*Cache, len(parent.Levels))
	}
	for i, c := range parent.Levels {
		if levels[i] == nil {
			levels[i] = new(Cache)
		}
		levels[i].ResetCOW(c)
	}
	h.Levels = levels
}

// ReleaseCOW drops a copy-on-write hierarchy's links to the hierarchy it
// overlays, keeping its buffers for the next ResetCOW: a parked clone pins
// nothing of its former parent. The hierarchy is unusable until then.
func (h *Hierarchy) ReleaseCOW() {
	for _, c := range h.Levels {
		c.parent = nil
	}
}

// ShiftClock rebases every line's fill-completion timestamp by delta cycles.
// Access timing is linear in the access cycle — a hit's ready time is
// max(cycle+latency, readyAt) and a fill stores cycle+latency+... — so a
// hierarchy warmed on a clock c(i) and then shifted by delta is exactly the
// hierarchy warming on c(i)+delta would have produced. This lets one warming
// pass over a shared stream prefix serve several windows that open at
// different pseudo-cycles: capture, clone, shift each copy to its window's
// time base.
func (h *Hierarchy) ShiftClock(delta int64) {
	for _, c := range h.Levels {
		c.shiftClock(delta)
	}
}

// Reset clears statistics but keeps cache contents.
func (h *Hierarchy) Reset() {
	for _, c := range h.Levels {
		c.Accesses, c.Misses = 0, 0
	}
	h.MemAccs = 0
	h.PrefetchIssued, h.PrefetchUseful = 0, 0
}

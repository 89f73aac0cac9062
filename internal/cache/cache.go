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
	lastUse int64 // LRU clock; 0 for an invalid way, as every stamp is >= 1
	readyAt int64 // cycle the fill completes
}

func (l *line) valid() bool { return l.lastUse != 0 }

// chunkShift sizes the blocks set storage is allocated in: 1<<chunkShift
// sets per chunk (fewer when the whole cache is smaller).
const chunkShift = 4

// Cache is one set-associative level.
//
// Storage is sparse and set-granular: a set gets lines the first time an
// access touches it, so a cache costs its set index plus the sets a run
// actually uses. Every cache is an overlay: a fresh one overlays nothing
// (an untouched set reads as all-invalid), a copy-on-write clone overlays
// the frozen cache it was made from (an untouched set reads through that
// parent chain). Materialized sets live in fixed-size chunks that are never
// moved or copied, so a set slice stays valid while other sets materialize.
type Cache struct {
	name     string
	sets     int
	setMask  uint64 // sets-1 when sets is a power of two, else 0
	ways     int
	latency  int64
	lruClock int64

	// shift lazily rebases fill timestamps: a line's effective readiness is
	// line.readyAt + shift, and installs store readyAt - shift, so ShiftClock
	// is O(1) instead of a pass over every line.
	shift int64

	// parent is the frozen cache this one overlays, nil for none (possibly
	// itself an overlay, forming a chain). idx maps a set to 1+slot of its
	// storage here, 0 while this cache has not materialized it; a set
	// resolves at the nearest chain level that has. Slot k is ways lines in
	// chunks[k>>chunkShift], and slots 0 to used-1 are taken. Every level
	// below a clone must stay frozen while the clone is live.
	parent *Cache
	idx    []int32
	chunks [][]line
	used   int32

	// Statistics.
	Accesses int64
	Misses   int64
}

// New builds a cache with the given total size in bytes, associativity and
// hit latency in cycles. It starts empty and allocates only its set index.
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
		idx:     make([]int32, sets),
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

// setIndex returns the set a line (address / LineSize) maps to.
func (c *Cache) setIndex(tag int64) int {
	blk := uint64(tag)
	// A power-of-two set count — every stock geometry — indexes with a mask
	// instead of a division on the simulator's hottest path.
	if c.setMask != 0 {
		return int(blk & c.setMask)
	}
	return int(blk % uint64(c.sets))
}

// slot returns the ways of slot k.
func (c *Cache) slot(k int32) []line {
	off := int(k&(1<<chunkShift-1)) * c.ways
	return c.chunks[k>>chunkShift][off : off+c.ways]
}

// chunkLen is the length in lines of one storage chunk.
func (c *Cache) chunkLen() int { return min(1<<chunkShift, c.sets) * c.ways }

// materialize gives set s storage here, initialised to what the parent
// chain holds for it, and returns 1+its slot.
func (c *Cache) materialize(s int) int32 {
	k := c.used
	if int(k>>chunkShift) == len(c.chunks) {
		c.chunks = append(c.chunks, make([]line, c.chunkLen()))
	}
	c.used++
	c.idx[s] = k + 1
	dst := c.slot(k)
	if src := c.parent.find(s); src != nil {
		copy(dst, src)
	} else {
		clear(dst) // a recycled chunk holds a former overlay's lines
	}
	return k + 1
}

// find returns set s as c sees it, without materializing it: the nearest
// chain level that has materialized the set wins, and nil means no level
// has (all ways invalid). The slice may alias a frozen parent's storage.
func (c *Cache) find(s int) []line {
	for p := c; p != nil; p = p.parent {
		if k := p.idx[s]; k != 0 {
			return p.slot(k - 1)
		}
	}
	return nil
}

// lookup returns the way of set holding the line, or nil.
func lookup(set []line, tag int64) *line {
	for i := range set {
		if set[i].tag == tag && set[i].valid() {
			return &set[i]
		}
	}
	return nil
}

// install places the line into set (one of c's) with the given readiness
// time, evicting the first invalid way, else the LRU one: the first way
// with the lowest stamp either way. Ways therefore fill in order, so a
// set's valid lines are always a prefix of it.
func (c *Cache) install(set []line, tag, readyAt int64) {
	victim := &set[0]
	for i := 1; i < len(set) && victim.valid(); i++ {
		if set[i].lastUse < victim.lastUse {
			victim = &set[i]
		}
	}
	c.lruClock++
	*victim = line{tag: tag, lastUse: c.lruClock, readyAt: readyAt - c.shift}
}

// Contains reports whether addr's line is resident (regardless of fill
// completion); used by tests and the prefetcher. It materializes nothing.
func (c *Cache) Contains(addr int64) bool {
	tag := addr / LineSize
	return lookup(c.find(c.setIndex(tag)), tag) != nil
}

// Clone returns an independent deep copy of the level: contents, LRU order,
// fill timestamps and statistics. The copy's form depends only on what is
// cached: it overlays nothing, holds exactly the non-empty sets, in set
// order, and has the clock shift folded into its timestamps — so two caches
// holding the same lines clone to deeply equal values however their sets
// were touched.
func (c *Cache) Clone() *Cache {
	cp := *c
	cp.parent, cp.chunks, cp.used, cp.shift = nil, nil, 0, 0
	cp.idx = make([]int32, c.sets)
	for s := range c.sets {
		src := c.find(s)
		if src == nil || !src[0].valid() {
			continue
		}
		dst := cp.slot(cp.materialize(s) - 1)
		for i, ln := range src {
			if ln.valid() {
				ln.readyAt += c.shift
			}
			dst[i] = ln
		}
	}
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
	cp := new(Cache)
	cp.ResetCOW(c)
	return cp
}

// ResetCOW turns c into a copy-on-write clone layered over parent, exactly
// as parent.CloneCOW() would build it, but keeping c's set index and storage
// chunks when they fit parent's geometry. c must be a private clone no other
// cache layers over; sampled simulation recycles one window core's caches
// across windows this way.
func (c *Cache) ResetCOW(parent *Cache) {
	idx, chunks := c.idx, c.chunks
	*c = *parent
	c.parent = parent
	if cap(idx) >= parent.sets {
		idx = idx[:parent.sets]
		clear(idx)
	} else {
		idx = make([]int32, parent.sets)
	}
	if len(chunks) > 0 && len(chunks[0]) != parent.chunkLen() {
		chunks = nil
	}
	c.idx, c.chunks, c.used = idx, chunks, 0
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
	tag := addr / LineSize
	elapsed := int64(0)
	// The levels missed are a prefix of h.Levels; slots[i] is the slot of
	// the set level i's fill goes into, found by the lookup.
	var slotBuf [maxStackLevels]int32
	slots := slotBuf[:0]
	for _, c := range h.Levels {
		if !prefetch {
			c.Accesses++
		}
		elapsed += c.latency
		// The set to look up, privately writable: materialize it on first
		// touch, as even a hit updates a line's LRU stamp. (Inlined by
		// hand: this is the simulator's hottest path.)
		s := c.setIndex(tag)
		k := c.idx[s]
		if k == 0 {
			k = c.materialize(s)
		}
		k--
		if ln := lookup(c.slot(k), tag); ln != nil {
			c.lruClock++
			ln.lastUse = c.lruClock
			ready := cycle + elapsed
			if eff := ln.readyAt + c.shift; eff > ready {
				ready = eff // in-flight fill: pay the remaining time
			}
			if !prefetch && ln.readyAt+c.shift > cycle && len(slots) == 0 {
				// Demand hit on an in-flight prefetch: it was useful.
				h.PrefetchUseful++
			}
			h.fill(slots, tag, ready)
			return ready
		}
		if !prefetch {
			c.Misses++
		}
		slots = append(slots, k)
	}
	if !prefetch {
		h.MemAccs++
	}
	ready := cycle + elapsed + h.MemLat
	h.fill(slots, tag, ready)
	return ready
}

func (h *Hierarchy) fill(slots []int32, tag, readyAt int64) {
	for i, k := range slots {
		c := h.Levels[i]
		c.install(c.slot(k), tag, readyAt)
	}
}

// Clone returns an independent deep copy of the whole hierarchy, each level
// in Cache.Clone's canonical form, so clones of hierarchies holding the same
// lines and statistics are deeply equal.
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

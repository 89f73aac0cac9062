package cache

// denseLine is a way as the dense cache stored it, with an explicit valid
// flag.
type denseLine struct {
	tag     int64
	valid   bool
	lastUse int64
	readyAt int64
}

// denseCache is the cache as it was stored before set storage became sparse:
// every set's lines in one sets × ways array, allocated up front. It stays as
// a test-only reference model for the oracle test; its copies are plain deep
// copies, so it also models what a copy-on-write clone must behave like.
type denseCache struct {
	sets     int
	ways     int
	latency  int64
	lines    []denseLine
	lruClock int64
	shift    int64

	Accesses int64
	Misses   int64
}

func newDense(cfg Config) *denseCache {
	sets := max(cfg.Size/LineSize/cfg.Ways, 1)
	return &denseCache{sets: sets, ways: cfg.Ways, latency: cfg.Latency, lines: make([]denseLine, sets*cfg.Ways)}
}

func (c *denseCache) set(addr int64) []denseLine {
	s := int(uint64(addr/LineSize) % uint64(c.sets))
	return c.lines[s*c.ways : (s+1)*c.ways]
}

func (c *denseCache) lookup(addr int64) *denseLine {
	tag := addr / LineSize
	set := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

func (c *denseCache) install(addr, readyAt int64) {
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
	*victim = denseLine{tag: addr / LineSize, valid: true, lastUse: c.lruClock, readyAt: readyAt - c.shift}
}

func (c *denseCache) clone() *denseCache {
	cp := *c
	cp.lines = append([]denseLine(nil), c.lines...)
	return &cp
}

// denseHierarchy is Hierarchy over dense levels, with the access path as it
// was: a lookup per level, then a second set lookup per missed level to
// install.
type denseHierarchy struct {
	Levels         []*denseCache
	MemLat         int64
	MemAccs        int64
	PrefetchIssued int64
	PrefetchUseful int64
}

func newDenseHierarchy(memLat int64, levels ...Config) *denseHierarchy {
	h := &denseHierarchy{MemLat: memLat}
	for _, l := range levels {
		h.Levels = append(h.Levels, newDense(l))
	}
	return h
}

func (h *denseHierarchy) Access(addr, cycle int64) int64 { return h.access(addr, cycle, false) }

func (h *denseHierarchy) Prefetch(addr, cycle int64) {
	h.PrefetchIssued++
	h.access(addr, cycle, true)
}

func (h *denseHierarchy) access(addr, cycle int64, prefetch bool) int64 {
	elapsed := int64(0)
	var missLevels []*denseCache
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
				ready = eff
			}
			if !prefetch && ln.readyAt+c.shift > cycle && len(missLevels) == 0 {
				h.PrefetchUseful++
			}
			for _, m := range missLevels {
				m.install(addr, ready)
			}
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
	for _, m := range missLevels {
		m.install(addr, ready)
	}
	return ready
}

// clone deep-copies the hierarchy; shared levels become private copies.
func (h *denseHierarchy) clone() *denseHierarchy {
	cp := *h
	cp.Levels = make([]*denseCache, len(h.Levels))
	for i, c := range h.Levels {
		cp.Levels[i] = c.clone()
	}
	return &cp
}

func (h *denseHierarchy) shiftClock(delta int64) {
	for _, c := range h.Levels {
		c.shift += delta
	}
}

package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// Differential oracle: the sparse, overlay-only cache must behave exactly
// like the dense reference model (dense_test.go) — same done-cycles, same
// statistics, same contents — over random demand and prefetch streams,
// geometries with and without power-of-two set counts, copy-on-write
// chains, clock shifts and a shared last-level cache.

type geometry struct {
	name   string
	levels []Config
}

// oracleGeometries covers 8 and 16 ways, power-of-two and other set counts,
// caches smaller than one storage chunk and caches spanning many.
func oracleGeometries() []geometry {
	var gs []geometry
	for _, ways := range []int{8, 16} {
		for _, l1Sets := range []int{16, 12, 1} {
			g := geometry{name: fmt.Sprintf("%dway/%dsets", ways, l1Sets)}
			for i, mult := range []int{1, 4, 8} {
				g.levels = append(g.levels, Config{
					Name:    fmt.Sprintf("L%d", i+1),
					Size:    l1Sets * mult * ways * LineSize,
					Ways:    ways,
					Latency: int64(4 << (2 * i)),
				})
			}
			gs = append(gs, g)
		}
	}
	return gs
}

// op is one access of a random stream.
type op struct {
	addr, cycle int64
	prefetch    bool
}

// randomOps draws n accesses over a footprint a few times the L1's, with
// far and negative addresses mixed in and a clock that mostly creeps
// forward, so streams see hits, conflict misses, in-flight fills and
// useful prefetches.
func randomOps(r *rand.Rand, g geometry, n int, cycle int64) []op {
	l1Lines := int64(g.levels[0].Size / LineSize)
	ops := make([]op, n)
	for i := range ops {
		var addr int64
		switch x := r.Intn(20); {
		case x == 0:
			addr = -r.Int63n(1 << 20)
		case x < 3:
			addr = r.Int63n(1 << 30)
		default:
			addr = r.Int63n(3*l1Lines*LineSize) + r.Int63n(4)*(l1Lines*LineSize*16)
		}
		cycle += r.Int63n(40)
		if r.Intn(200) == 0 {
			cycle += 5000
		}
		ops[i] = op{addr: addr, cycle: cycle, prefetch: r.Intn(5) == 0}
	}
	return ops
}

// twin is a sparse hierarchy and its dense reference, driven in lockstep.
type twin struct {
	h *Hierarchy
	d *denseHierarchy
}

func newTwin(memLat int64, levels ...Config) twin {
	return twin{NewHierarchy(memLat, levels...), newDenseHierarchy(memLat, levels...)}
}

// run applies ops to both sides, failing on the first differing done-cycle.
func (w twin) run(t *testing.T, what string, ops []op) {
	t.Helper()
	for i, o := range ops {
		if o.prefetch {
			w.h.Prefetch(o.addr, o.cycle)
			w.d.Prefetch(o.addr, o.cycle)
			continue
		}
		got, want := w.h.Access(o.addr, o.cycle), w.d.Access(o.addr, o.cycle)
		if got != want {
			t.Fatalf("%s: op %d (%+v) done at %d, dense reference %d", what, i, o, got, want)
		}
	}
}

// check compares statistics and contents of both sides, and of the sparse
// side's Clone, and asserts that Clone is canonical.
func (w twin) check(t *testing.T, what string) {
	t.Helper()
	h, d := w.h, w.d
	if h.MemAccs != d.MemAccs || h.PrefetchIssued != d.PrefetchIssued || h.PrefetchUseful != d.PrefetchUseful {
		t.Fatalf("%s: MemAccs/PrefetchIssued/PrefetchUseful %d/%d/%d, dense reference %d/%d/%d", what,
			h.MemAccs, h.PrefetchIssued, h.PrefetchUseful, d.MemAccs, d.PrefetchIssued, d.PrefetchUseful)
	}
	hc := h.Clone()
	for i, c := range h.Levels {
		checkLevel(t, fmt.Sprintf("%s: level %d", what, i), c, d.Levels[i])
		checkLevel(t, fmt.Sprintf("%s: clone of level %d", what, i), hc.Levels[i], d.Levels[i])
		checkCanonical(t, fmt.Sprintf("%s: clone of level %d", what, i), hc.Levels[i])
	}
}

func checkLevel(t *testing.T, what string, c *Cache, d *denseCache) {
	t.Helper()
	if c.Accesses != d.Accesses || c.Misses != d.Misses || c.lruClock != d.lruClock {
		t.Fatalf("%s: Accesses/Misses/LRU clock %d/%d/%d, dense reference %d/%d/%d", what,
			c.Accesses, c.Misses, c.lruClock, d.Accesses, d.Misses, d.lruClock)
	}
	got, want := contents(c), denseContents(d)
	for s := range c.sets {
		if g, w := got[s*c.ways:(s+1)*c.ways], want[s*c.ways:(s+1)*c.ways]; !slices.Equal(g, w) {
			t.Fatalf("%s: set %d holds %+v, dense reference %+v", what, s, g, w)
		}
	}
	for s := range c.sets {
		for _, ln := range want[s*c.ways : (s+1)*c.ways] {
			if ln.valid() && !c.Contains(ln.tag*LineSize) {
				t.Fatalf("%s: Contains(%#x) false for a resident line", what, ln.tag*LineSize)
			}
		}
	}
}

// contents returns every set of c as seen through its chain, dense-laid-out,
// with effective fill times. It materializes nothing.
func contents(c *Cache) []line {
	out := make([]line, c.sets*c.ways)
	for s := range c.sets {
		if set := c.find(s); set != nil {
			copy(out[s*c.ways:], set)
		}
	}
	return effective(out, c.shift)
}

// denseContents is contents for the dense reference, in the sparse
// cache's line form (an invalid way is the zero line).
func denseContents(d *denseCache) []line {
	out := make([]line, len(d.lines))
	for i, l := range d.lines {
		if l.valid {
			out[i] = line{tag: l.tag, lastUse: l.lastUse, readyAt: l.readyAt}
		}
	}
	return effective(out, d.shift)
}

func effective(lines []line, shift int64) []line {
	for i := range lines {
		if lines[i].valid() {
			lines[i].readyAt += shift
		}
	}
	return lines
}

// checkCanonical asserts the form Clone promises: no parent, no shift, and
// exactly the non-empty sets materialized, in set order.
func checkCanonical(t *testing.T, what string, c *Cache) {
	t.Helper()
	if c.parent != nil || c.shift != 0 {
		t.Fatalf("%s: clone has a parent or a clock shift", what)
	}
	next := int32(1)
	for s, k := range c.idx {
		switch set := c.find(s); {
		case set != nil && slices.ContainsFunc(set, func(l line) bool { return l.valid() }):
			if k != next {
				t.Fatalf("%s: non-empty set %d in slot %d, want %d", what, s, k-1, next-1)
			}
			next++
		case k != 0:
			t.Fatalf("%s: empty set %d materialized", what, s)
		}
	}
	if c.used != next-1 {
		t.Fatalf("%s: %d slots used for %d non-empty sets", what, c.used, next-1)
	}
}

func TestOracleRandomStreams(t *testing.T) {
	for _, g := range oracleGeometries() {
		for seed := int64(1); seed <= 3; seed++ {
			r := rand.New(rand.NewSource(seed))
			w := newTwin(200, g.levels...)
			for round := range 10 {
				w.run(t, g.name, randomOps(r, g, 1000, int64(round)*100_000))
				w.check(t, fmt.Sprintf("%s seed %d round %d", g.name, seed, round))
			}
		}
	}
}

// TestOracleCOWChains models warm-state capture and sampled windows: a
// warming hierarchy is frozen at several boundaries and continues on a
// copy-on-write clone each time; some captures are clock-shifted after the
// clone was made; windows are clones of the captures, some recycled with
// ResetCOW across captures. The dense side deep-copies instead. Every
// capture must still match its dense twin at the end.
func TestOracleCOWChains(t *testing.T) {
	for _, g := range oracleGeometries() {
		r := rand.New(rand.NewSource(7))
		w := newTwin(200, g.levels...)
		cycle := int64(0)
		next := func(n int) []op {
			ops := randomOps(r, g, n, cycle)
			cycle = ops[n-1].cycle
			return ops
		}
		w.run(t, g.name+" warm", next(3000))

		var captures []twin
		for b := range 4 {
			captures = append(captures, w)
			w = twin{w.h.CloneCOW(), w.d.clone()}
			if b%2 == 1 {
				captures[b].h.ShiftClock(-cycle)
				captures[b].d.shiftClock(-cycle)
			}
			w.run(t, fmt.Sprintf("%s warming after capture %d", g.name, b), next(1500))
			w.check(t, fmt.Sprintf("%s warming after capture %d", g.name, b))
		}

		var recycled *Hierarchy
		for b, c := range captures {
			win := twin{recycled, c.d.clone()}
			if recycled == nil {
				win.h = c.h.CloneCOW()
			} else {
				recycled.ResetCOW(c.h)
			}
			win.run(t, fmt.Sprintf("%s window on capture %d", g.name, b), randomOps(r, g, 1500, 0))
			win.check(t, fmt.Sprintf("%s window on capture %d", g.name, b))
			win.h.ReleaseCOW()
			recycled = win.h
		}
		for b, c := range captures {
			c.check(t, fmt.Sprintf("%s capture %d after its clones ran", g.name, b))
		}
	}
}

// TestCloneIsCanonical: a chain leaf and a fresh hierarchy that saw the same
// stream clone to deeply equal values, although their sets were
// materialized in different orders and storage.
func TestCloneIsCanonical(t *testing.T) {
	for _, g := range oracleGeometries() {
		// A short stream, so the lower levels keep empty sets.
		r := rand.New(rand.NewSource(3))
		ops := randomOps(r, g, 600, 0)
		flat, chain := NewHierarchy(200, g.levels...), NewHierarchy(200, g.levels...)
		for i, o := range ops {
			if i%100 == 99 {
				chain = chain.CloneCOW()
			}
			for _, h := range []*Hierarchy{flat, chain} {
				if o.prefetch {
					h.Prefetch(o.addr, o.cycle)
				} else {
					h.Access(o.addr, o.cycle)
				}
			}
		}
		// The reverse touch order: materialize every set of a fresh
		// overlay from the highest index down before cloning.
		rev := chain.CloneCOW()
		for _, c := range rev.Levels {
			for s := c.sets - 1; s >= 0; s-- {
				c.materialize(s)
			}
		}
		if a, b := flat.Clone(), chain.Clone(); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: clones of a flat hierarchy and a chain leaf with the same contents differ", g.name)
		}
		if a, b := flat.Clone(), rev.Clone(); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: clones of a flat hierarchy and a fully materialized overlay differ", g.name)
		}
	}
}

// TestOracleSharedLLC models the multicore system: two cores' hierarchies
// with private upper levels over one shared last-level cache object, with
// accesses interleaved between them.
func TestOracleSharedLLC(t *testing.T) {
	for _, g := range oracleGeometries() {
		r := rand.New(rand.NewSource(11))
		llc, dllc := New("L3", g.levels[2].Size, g.levels[2].Ways, g.levels[2].Latency), newDense(g.levels[2])
		var cores [2]twin
		for i := range cores {
			cores[i] = newTwin(200, g.levels[:2]...)
			cores[i].h.Levels = append(cores[i].h.Levels, llc)
			cores[i].d.Levels = append(cores[i].d.Levels, dllc)
		}
		for i, o := range randomOps(r, g, 8000, 0) {
			cores[i%3%2].run(t, fmt.Sprintf("%s core %d", g.name, i%3%2), []op{o})
		}
		for i, c := range cores {
			c.check(t, fmt.Sprintf("%s core %d", g.name, i))
		}
	}
}

package pipeline

import mathbits "math/bits"

// This file holds the event-driven scheduler's support structures: the
// completion wheel, generation-tagged entry references, the pooled entry
// allocator, and the small ordered containers (the ready, commit-candidate
// and branch sets, the blocker deques) that replace the per-cycle O(ROB)
// scans the core and the commit policies used to perform.
//
// Reference safety: entries are pooled and recycled the moment they drain
// from the pipeline, so any container that can hold a reference across an
// entry's recycling stores an entryRef — the pointer plus the generation the
// entry had when the reference was taken. A reference whose generation no
// longer matches is stale: the instruction it referred to left the pipeline
// (committed and completed, or was squashed and reclaimed), which in every
// use site below means "no longer relevant — skip". Containers that are
// eagerly purged before recycling (the ROB list, the ready, candidate and
// branch sets) hold plain pointers.

// entryRef is a generation-tagged entry reference.
type entryRef struct {
	e   *Entry
	gen uint32
}

// live reports whether the reference still names the instruction it was
// taken for.
func (r entryRef) live() bool { return r.e.gen == r.gen }

// ---- entry pool ----

// entryPool recycles Entry objects so the steady-state cycle allocates
// nothing. Recycling bumps the entry's generation, invalidating every
// outstanding entryRef to its former life; per-entry slices keep their
// capacity across lives.
type entryPool struct {
	free []*Entry
	all  []*Entry // every entry the pool ever allocated, for reclaim
}

func (p *entryPool) get() *Entry {
	n := len(p.free)
	if n == 0 {
		e := &Entry{}
		p.all = append(p.all, e)
		return e
	}
	e := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return e
}

// put recycles e. The caller guarantees no plain-pointer container still
// holds it; tagged references are invalidated by the generation bump.
func (p *entryPool) put(e *Entry) {
	e.gen++
	e.reset()
	p.free = append(p.free, e)
}

// reclaim returns every entry the pool ever handed out, wherever it still
// sits, to the free list: the core that owns the pool is being reset, so no
// container of it survives to hold one.
func (p *entryPool) reclaim() {
	p.free = p.free[:0]
	for _, e := range p.all {
		p.put(e)
	}
}

// ---- completion wheel ----

// complWheel buckets in-flight completions by cycle modulo a power-of-two
// horizon, replacing the map the core used to key completion events with.
// The horizon is sized past the longest possible issue-to-complete latency
// (a full-miss memory access plus slack), so two live events can never
// share a bucket; if a configuration exceeds it anyway the wheel re-hashes
// into a doubled horizon. Bucket slices are reused, so the steady state
// schedules and fires events without allocating.
type complWheel struct {
	buckets [][]entryRef
	mask    int64
}

func newComplWheel(horizon int64) complWheel {
	size := wheelSize(horizon)
	return complWheel{buckets: make([][]entryRef, size), mask: size - 1}
}

func wheelSize(horizon int64) int64 {
	size := int64(64)
	for size < horizon {
		size <<= 1
	}
	return size
}

// reset empties the wheel for a new run, keeping the bucket storage when it
// covers horizon. A larger wheel than newComplWheel(horizon) builds fires
// the same events in the same order — every bucket still holds a single
// cycle's events, in scheduling order, exactly as after a grow — so a wheel
// that grew in an earlier run is kept.
func (w *complWheel) reset(horizon int64) {
	if int64(len(w.buckets)) < wheelSize(horizon) {
		*w = newComplWheel(horizon)
		return
	}
	for i := range w.buckets {
		w.buckets[i] = w.buckets[i][:0]
	}
}

// schedule records that e completes at cycle at (= e.doneAt), seen from now.
func (w *complWheel) schedule(now int64, e *Entry) {
	if e.doneAt-now >= int64(len(w.buckets)) {
		w.grow(now, e.doneAt)
	}
	i := e.doneAt & w.mask
	w.buckets[i] = append(w.buckets[i], entryRef{e, e.gen})
}

// take returns the bucket for cycle and leaves it empty (capacity kept).
// References must be generation-checked by the caller: squashed-and-recycled
// entries leave their event behind.
func (w *complWheel) take(cycle int64) []entryRef {
	i := cycle & w.mask
	b := w.buckets[i]
	w.buckets[i] = b[:0]
	return b
}

// peek returns the bucket for cycle without emptying it.
func (w *complWheel) peek(cycle int64) []entryRef { return w.buckets[cycle&w.mask] }

// nextBusy returns the first cycle in [from, limit) whose bucket holds an
// event — possibly a stale one, which only ends an idle stretch early — or
// limit. limit must lie at most one horizon past from.
func (w *complWheel) nextBusy(from, limit int64) int64 {
	for t := from; t < limit; t++ {
		if len(w.buckets[t&w.mask]) > 0 {
			return t
		}
	}
	return limit
}

// grow re-hashes every pending event into a wheel at least until cycles
// past now. Stale references are dropped in passing.
func (w *complWheel) grow(now, until int64) {
	size := int64(len(w.buckets))
	for size <= until-now {
		size <<= 1
	}
	fresh := make([][]entryRef, size)
	for _, b := range w.buckets {
		for _, ref := range b {
			if !ref.live() {
				continue
			}
			i := ref.e.doneAt & (size - 1)
			fresh[i] = append(fresh[i], ref)
		}
	}
	w.buckets, w.mask = fresh, size-1
}

// ---- ordered entry sets ----

// entrySet is a set of entries kept in key order, where keys are distinct
// non-negative integers that mostly arrive in increasing order: dispatch
// order for the ready and commit-candidate sets, trace index (= Seq) for
// the branch sets. Members' keys lie in a sliding span [lo, hi) no wider
// than the ring: the member with key k sits in slot k&mask and a bitmap
// marks occupied slots, so insert, remove and lookup are O(1) with no
// element motion, and an ordered walk skips 64 empty keys per bitmap word
// with TrailingZeros64. An insert that would widen the span past the ring
// first tightens [lo, hi) to the actual members, then doubles the ring.
type entrySet struct {
	slots  []*Entry
	bits   []uint64
	mask   int64
	lo, hi int64 // every member's key is in [lo, hi)
	n      int
}

// cleared returns the set emptied, keeping its storage.
func (s entrySet) cleared() entrySet {
	clear(s.slots)
	clear(s.bits)
	return entrySet{slots: s.slots, bits: s.bits, mask: s.mask}
}

func (s *entrySet) len() int { return s.n }

// insert adds e under key k, which must not already be present.
func (s *entrySet) insert(k int64, e *Entry) {
	lo, hi := k, k+1
	if s.n > 0 {
		lo, hi = min(s.lo, k), max(s.hi, k+1)
		if hi-lo > int64(len(s.slots)) {
			s.tighten()
			lo, hi = min(s.lo, k), max(s.hi, k+1)
		}
	}
	if hi-lo > int64(len(s.slots)) {
		s.grow(hi - lo)
	}
	s.lo, s.hi = lo, hi
	i := k & s.mask
	s.slots[i] = e
	s.bits[i>>6] |= 1 << (i & 63)
	s.n++
}

// remove drops the member with key k, if any.
func (s *entrySet) remove(k int64) {
	if s.get(k) == nil {
		return
	}
	s.clearSlot(k)
}

// get returns the member with key k, or nil.
func (s *entrySet) get(k int64) *Entry {
	if k < s.lo || k >= s.hi {
		return nil
	}
	return s.slots[k&s.mask]
}

// first returns the member with the smallest key, or nil.
func (s *entrySet) first() *Entry {
	if s.n == 0 {
		return nil
	}
	if e := s.slots[s.lo&s.mask]; e != nil {
		return e // lo always holds the minimum once a member sits there
	}
	k, ok := s.scan(s.lo)
	if !ok {
		return nil
	}
	s.lo = k
	return s.slots[k&s.mask]
}

// after returns the member with the smallest key above k, or nil. Walks
// tolerate removal of the member they stand on: the next step is keyed, not
// positional.
func (s *entrySet) after(k int64) *Entry {
	if s.n == 0 {
		return nil
	}
	if k < s.lo {
		k = s.lo - 1
	}
	if k, ok := s.scan(k + 1); ok {
		return s.slots[k&s.mask]
	}
	return nil
}

// scan returns the smallest member key in [from, hi).
func (s *entrySet) scan(from int64) (int64, bool) {
	for k := from; k < s.hi; {
		i := k & s.mask
		if w := s.bits[i>>6] >> (i & 63); w != 0 {
			k += int64(mathbits.TrailingZeros64(w))
			return k, k < s.hi
		}
		k += 64 - i&63
	}
	return 0, false
}

// clearSlot empties the occupied slot of key k.
func (s *entrySet) clearSlot(k int64) {
	i := k & s.mask
	s.slots[i] = nil
	s.bits[i>>6] &^= 1 << (i & 63)
	s.n--
}

// truncateAbove drops every member with key above k (the squash pattern:
// everything younger than the recovering branch).
func (s *entrySet) truncateAbove(k int64) {
	for j, ok := s.scan(max(k+1, s.lo)); ok; j, ok = s.scan(j + 1) {
		s.clearSlot(j)
	}
	s.hi = max(min(s.hi, k+1), s.lo)
}

// purgeSquashed drops every squashed member.
func (s *entrySet) purgeSquashed() {
	for j, ok := s.scan(s.lo); ok; j, ok = s.scan(j + 1) {
		if s.slots[j&s.mask].squashed {
			s.clearSlot(j)
		}
	}
}

// appendTo appends the members to buf in key order.
func (s *entrySet) appendTo(buf []*Entry) []*Entry {
	for j, ok := s.scan(s.lo); ok; j, ok = s.scan(j + 1) {
		buf = append(buf, s.slots[j&s.mask])
	}
	return buf
}

// tighten shrinks [lo, hi) to the span the (at least one) members occupy.
func (s *entrySet) tighten() {
	first, _ := s.scan(s.lo)
	last := first
	for j, ok := s.scan(first + 1); ok; j, ok = s.scan(j + 1) {
		last = j
	}
	s.lo, s.hi = first, last+1
}

// grow rebuilds the ring with room for a key span of at least span,
// rehashing every member.
func (s *entrySet) grow(span int64) {
	size := int64(64)
	for size < span {
		size <<= 1
	}
	slots, bits := make([]*Entry, size), make([]uint64, size/64)
	for j, ok := s.scan(s.lo); ok; j, ok = s.scan(j + 1) {
		i := j & (size - 1)
		slots[i] = s.slots[j&s.mask]
		bits[i>>6] |= 1 << (i & 63)
	}
	s.slots, s.bits, s.mask = slots, bits, size-1
}

// purgeSquashed removes squashed entries from q in place, preserving order.
func purgeSquashed(q []*Entry) []*Entry {
	keep := q[:0]
	for _, e := range q {
		if !e.squashed {
			keep = append(keep, e)
		}
	}
	for j := len(keep); j < len(q); j++ {
		q[j] = nil
	}
	return keep
}

// ---- blocker deque ----

// refDeque is a FIFO of generation-tagged references in dispatch order. The
// boundary trackers push every potentially-blocking instruction at dispatch
// and lazily pop the front once it can no longer block; because "stopped
// blocking" is monotone (a resolved branch stays resolved, a translated
// access stays translated, a drained or squashed entry never returns), the
// front is always the oldest still-blocking instruction.
type refDeque struct {
	buf     []entryRef
	head, n int
}

// cleared returns the deque emptied, keeping its storage.
func (d refDeque) cleared() refDeque { return refDeque{buf: d.buf} }

func (d *refDeque) push(e *Entry) {
	if d.head+d.n == len(d.buf) {
		if d.head > d.n {
			copy(d.buf, d.buf[d.head:d.head+d.n])
			for i := d.n; i < d.head+d.n; i++ {
				d.buf[i] = entryRef{}
			}
			d.head = 0
		} else {
			d.buf = append(d.buf[:d.head+d.n], entryRef{})
			d.buf = d.buf[:cap(d.buf)]
		}
	}
	d.buf[d.head+d.n] = entryRef{e, e.gen}
	d.n++
}

func (d *refDeque) front() (entryRef, bool) {
	if d.n == 0 {
		return entryRef{}, false
	}
	return d.buf[d.head], true
}

func (d *refDeque) popFront() {
	d.buf[d.head] = entryRef{}
	d.head++
	d.n--
	if d.n == 0 {
		d.head = 0
	}
}

// purgeSquashed drops squashed and stale references anywhere in the deque
// (recovery may squash mid-deque entries).
func (d *refDeque) purgeSquashed() {
	w := d.head
	for i := 0; i < d.n; i++ {
		ref := d.buf[d.head+i]
		if ref.live() && !ref.e.squashed {
			d.buf[w] = ref
			w++
		}
	}
	for i := w; i < d.head+d.n; i++ {
		d.buf[i] = entryRef{}
	}
	d.n = w - d.head
	if d.n == 0 {
		d.head = 0
	}
}

// ---- entry deque ----

// entryDeque is a FIFO of plain entry pointers (for containers that are
// eagerly purged before any member can be recycled): the fetch queue and
// the Selective ROB's unsteered-entry queue.
type entryDeque struct {
	buf     []*Entry
	head, n int
}

// cleared returns the deque emptied, keeping its storage.
func (d entryDeque) cleared() entryDeque { return entryDeque{buf: d.buf} }

func (d *entryDeque) push(e *Entry) {
	if d.head+d.n == len(d.buf) {
		if d.head > d.n {
			copy(d.buf, d.buf[d.head:d.head+d.n])
			for i := d.n; i < d.head+d.n; i++ {
				d.buf[i] = nil
			}
			d.head = 0
		} else {
			d.buf = append(d.buf[:d.head+d.n], nil)
			d.buf = d.buf[:cap(d.buf)]
		}
	}
	d.buf[d.head+d.n] = e
	d.n++
}

func (d *entryDeque) front() *Entry {
	if d.n == 0 {
		return nil
	}
	return d.buf[d.head]
}

func (d *entryDeque) at(i int) *Entry { return d.buf[d.head+i] }

func (d *entryDeque) len() int { return d.n }

func (d *entryDeque) popFront() *Entry {
	e := d.buf[d.head]
	d.buf[d.head] = nil
	d.head++
	d.n--
	if d.n == 0 {
		d.head = 0
	}
	return e
}

func (d *entryDeque) purgeSquashed() {
	w := d.head
	for i := 0; i < d.n; i++ {
		e := d.buf[d.head+i]
		if !e.squashed {
			d.buf[w] = e
			w++
		}
	}
	for i := w; i < d.head+d.n; i++ {
		d.buf[i] = nil
	}
	d.n = w - d.head
	if d.n == 0 {
		d.head = 0
	}
}

package emulator

import (
	"fmt"
	"sync"
)

// DefaultBusSkew is the Broadcast skew bound used when callers pass a
// non-positive one: the maximum number of dynamic instructions the fastest
// consumer may run ahead of the slowest before it blocks. The bound is the
// bus's peak buffering, so it is also the memory ceiling of a fan-out run:
// DefaultBusSkew records regardless of how many consumers share the stream.
// The value comfortably exceeds the largest in-flight span the pipeline
// model reaches (ROB + misprediction windows + the reconvergence-scan
// lookahead, ~2–3 K records), so same-workload cores of different commit
// policies almost never block on each other in practice.
const DefaultBusSkew = 8192

// viewChunk is how many ring slots a view leases per lock acquisition.
// Leasing amortises the bus mutex over the pipeline's one-instruction-at-a-
// time pulls; leased records are read straight out of the shared ring, so N
// consumers share one buffered copy of every record instead of each copying
// the chunk into private storage.
const viewChunk = 64

// Broadcast fans one TraceSource out to N lockstep consumers: a single
// functional emulation (or trace replay) feeds any number of per-consumer
// TraceSource views, so a policy sweep over one workload costs one
// functional pass plus N timing models instead of N full re-emulations.
//
// The stream is buffered in a shared bounded ring with one cursor per view.
// Whichever consumer first needs a record past the buffered end pulls it
// from the source; records are released once the slowest cursor passes, and
// a consumer that would run more than maxSkew records ahead of the slowest
// blocks (yielding its goroutine) until the laggard advances or detaches.
// Peak buffering is therefore min(maxSkew, stream length) records, no
// matter how many consumers attach.
//
// The ring is allocated once, at the first refill, with capacity for the
// full skew bound and never reallocated: views read leased slots without
// the lock, so the storage must stay put for the life of the bus. A view's
// published cursor advances only when it takes a new lease, which keeps the
// ring head at or below every leased slot — a slot is never recycled while
// a consumer may still be reading it.
//
// Views must all be created before the first pull; a consumer that stops
// early (error, cancellation) must Close its view or its stalled cursor
// blocks the others forever. The bus is safe for one goroutine per view;
// each individual view keeps TraceSource's single-consumer contract.
type Broadcast struct {
	mu   sync.Mutex
	cond sync.Cond

	src     TraceSource
	name    string
	maxSkew int

	buf  []DynInst // ring storage; fixed power-of-two length >= maxSkew
	head int64     // absolute index of the oldest buffered record
	end  int64     // absolute index one past the newest buffered record
	eof  bool
	err  error

	views   []*BusView
	started bool
	peak    int // high-water mark of buffered records
}

// NewBroadcast wraps src in a broadcast bus with the given skew bound (a
// non-positive bound means DefaultBusSkew). The source must not be consumed
// by anyone else once the bus owns it.
func NewBroadcast(src TraceSource, maxSkew int) *Broadcast {
	if maxSkew <= 0 {
		maxSkew = DefaultBusSkew
	}
	b := &Broadcast{src: src, name: src.Name(), maxSkew: maxSkew}
	b.cond.L = &b.mu
	return b
}

// View hands out one consumer's TraceSource over the shared stream. All
// views must be created before any of them pulls — a late joiner would
// have already missed released records — so View panics once consumption
// has started.
func (b *Broadcast) View() *BusView {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.started {
		panic("emulator: Broadcast.View after consumption started")
	}
	v := &BusView{b: b, cursor: 0}
	b.views = append(b.views, v)
	return v
}

// PeakRecords returns the high-water mark of records buffered in the ring —
// the realized skew between the fastest and slowest consumer, bounded above
// by the construction-time skew limit.
func (b *Broadcast) PeakRecords() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peak
}

// minCursorLocked returns the smallest cursor over open views. Callers hold
// b.mu and guarantee at least one open view.
func (b *Broadcast) minCursorLocked() int64 {
	min := int64(1) << 62
	for _, v := range b.views {
		if !v.closed && v.cursor < min {
			min = v.cursor
		}
	}
	return min
}

// releaseLocked advances the ring head to the slowest open cursor, recycling
// every record all consumers have passed, and wakes consumers blocked on the
// skew bound. Callers hold b.mu.
func (b *Broadcast) releaseLocked() {
	b.advanceHeadLocked(b.minCursorLocked())
}

// advanceHeadLocked raises the ring head to min (clamped to the buffered
// end, where the no-open-views sentinel lands), waking skew-blocked
// consumers when records were recycled. Callers hold b.mu.
func (b *Broadcast) advanceHeadLocked(min int64) {
	if min > b.end {
		min = b.end
	}
	if min > b.head {
		b.head = min
		b.cond.Broadcast()
	}
}

// slotLocked returns the ring slot the next record will occupy, allocating
// the ring on first use and enforcing the occupancy invariant. Writing the
// unpublished slot is safe: the overflow check proves it cannot alias any
// slot a consumer may be reading (all leased slots lie in [head, end)).
// The record is not visible until pullLocked publishes it. Callers hold
// b.mu.
func (b *Broadcast) slotLocked() *DynInst {
	if b.buf == nil {
		// Allocate once at full skew capacity (next power of two): leased
		// slots are read without the lock, so the ring can never move.
		size := 1
		for size < b.maxSkew {
			size <<= 1
		}
		b.buf = make([]DynInst, size)
	}
	if n := int(b.end - b.head); n >= len(b.buf) {
		panic(fmt.Sprintf("emulator: broadcast ring overflow: %d records in %d slots (skew %d)",
			n, len(b.buf), b.maxSkew))
	}
	return &b.buf[b.end&int64(len(b.buf)-1)]
}

// BusView is one consumer's pull-based view of a Broadcast stream: a
// TraceSource delivering exactly the records the underlying source produces,
// in order, with its own Counts. NextInto blocks when this consumer would
// exceed the bus skew bound; Close detaches the consumer so siblings stop
// waiting for it.
type BusView struct {
	b      *Broadcast
	cursor int64 // published protected position: start of the current lease (under b.mu)
	closed bool  // under b.mu

	// Consumer-goroutine-private lease state: records [cursor, cursor+n) of
	// the shared ring are reserved for this view — the ring head cannot pass
	// the published cursor, so they are served by reference without the
	// lock. pos is the next lease offset to deliver.
	pos    int
	n      int
	mask   int64 // len(b.buf)-1, cached when the first lease is taken
	counts Counts
	ended  bool
}

// Name identifies the shared underlying program.
func (v *BusView) Name() string { return v.b.name }

// NextInto copies this consumer's next dynamic instruction out of the
// shared ring into *d.
func (v *BusView) NextInto(d *DynInst) bool {
	r, ok := v.NextRef()
	if ok {
		*d = *r
	}
	return ok
}

// NextRef delivers a pointer to this consumer's next dynamic instruction,
// valid until the next NextRef or NextInto call (the record lives in the
// shared ring; advancing past it eventually recycles the slot). When the
// lease runs dry it takes a new one — pulling the underlying source when
// this consumer is the first to need a record, blocking when the skew bound
// says the slowest consumer must catch up first. It is the lease read
// NextInto is built on, kept exported for callers outside this module that
// read a view without copying (the benchmark harness).
func (v *BusView) NextRef() (*DynInst, bool) {
	if v.pos < v.n {
		d := &v.b.buf[(v.cursor+int64(v.pos))&v.mask]
		v.pos++
		v.counts.add(d)
		return d, true
	}
	if v.ended {
		return nil, false
	}
	if !v.refill() {
		v.ended = true
		return nil, false
	}
	d := &v.b.buf[(v.cursor+int64(v.pos))&v.mask]
	v.pos++
	v.counts.add(d)
	return d, true
}

// refill retires the current lease and takes the next one, reporting false
// at end of stream. Publishing the new cursor (the old lease end) before
// assembling the lease releases the slots the consumer has finished with;
// the newly leased slots stay protected because the head can never pass
// this view's published cursor.
func (v *BusView) refill() bool {
	b := v.b
	b.mu.Lock()
	defer b.mu.Unlock()
	b.started = true
	v.cursor += int64(v.pos)
	v.pos, v.n = 0, 0
	// min caches the slowest open cursor. Cursors are monotonic and move
	// only under b.mu — held for this whole loop except inside cond.Wait —
	// so the cache is a lower bound on the true minimum: checking skew
	// against it is conservative (never overshoots the bound), and the
	// O(views) rescan happens once per refill, per wakeup, or per maxSkew
	// records pulled instead of once per record.
	min := b.minCursorLocked()
	for v.n < viewChunk {
		if v.closed {
			break
		}
		if v.cursor+int64(v.n) < b.end {
			v.n++
			continue
		}
		if b.eof {
			break
		}
		if int(b.end-min) >= b.maxSkew {
			// Possibly at the bound: refresh — retiring our lease above may
			// have advanced the true minimum — and recycle passed records.
			min = b.minCursorLocked()
			b.advanceHeadLocked(min)
			if int(b.end-min) >= b.maxSkew {
				// Genuinely the fastest. Park until the slowest advances (or
				// detaches), but deliver what we already leased first so the
				// pipeline keeps cycling.
				if v.n > 0 {
					break
				}
				b.cond.Wait()
				min = b.minCursorLocked()
				continue
			}
		}
		// Keep the head no staler than the skew check, so pullLocked's
		// occupancy (peak metric and overflow check) stays within the bound.
		b.advanceHeadLocked(min)
		if !b.pullLocked() {
			break
		}
	}
	v.mask = int64(len(b.buf) - 1)
	// Retiring the old lease advanced this cursor; if we were (one of) the
	// slowest, records became releasable.
	b.releaseLocked()
	return v.n > 0
}

// pullLocked draws one record from the underlying source straight into the
// next ring slot — the live-emulator feed executes into the ring, with no
// DynInst copy on the producer side — and records end-of-stream. Callers
// hold b.mu.
func (b *Broadcast) pullLocked() bool {
	if b.src.NextInto(b.slotLocked()) {
		b.end++
		if n := int(b.end - b.head); n > b.peak {
			b.peak = n
		}
		return true
	}
	b.eof = true
	b.err = b.src.Err()
	b.cond.Broadcast()
	return false
}

// Err reports the underlying stream's terminal error once this view has
// consumed the stream to its end, mirroring the solo-source contract; a view
// closed before the end reports nil.
func (v *BusView) Err() error {
	if !v.ended {
		return nil
	}
	v.b.mu.Lock()
	defer v.b.mu.Unlock()
	if v.closed && v.cursor < v.b.end {
		return nil
	}
	return v.b.err
}

// Counts summarises the instructions delivered to this consumer so far; it
// matches a solo source over the same stream prefix exactly.
func (v *BusView) Counts() Counts { return v.counts }

// Close detaches the consumer: its cursor stops holding back the ring
// release and any sibling blocked on the skew bound wakes up. A consumer
// that abandons the stream early (simulation error, cancellation) must call
// Close, or the stalled cursor blocks every other view forever. Close is
// idempotent; NextInto returns false after it.
func (v *BusView) Close() {
	b := v.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if v.closed {
		return
	}
	v.closed = true
	v.cursor += int64(v.pos)
	v.pos, v.n = 0, 0
	b.releaseLocked()
	b.cond.Broadcast()
}

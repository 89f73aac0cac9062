package pipeline

import "github.com/noreba-sim/noreba/internal/sanity"

// norebaPolicy implements the Selective ROB (§4.2) with its support
// structures: decoded instructions sit in ROB′ (the main ROB, FIFO) and are
// steered from its head into the Primary Commit Queue or one of the Branch
// Commit Queues according to their BranchID; the Commit Queue Table (CQT)
// maps live branches to queues; the Committed Instructions Table (CIT)
// records out-of-order-committed instructions so their re-fetch after a
// misprediction is dropped at decode (§4.3).
//
// Queue index 0 is PR-CQ; 1..NumBRCQs are BR-CQs. All structures are
// incremental: ROB′ is a FIFO fed at dispatch (replacing a per-cycle scan
// for the oldest unsteered entry), the CQT is a seq-sorted slice with a
// maintained live count (replacing a map that was recounted per steer), and
// CIT reclamation skips its scan while the oldest recorded index cannot be
// freed yet.
type norebaPolicy struct {
	cfg SelectiveROBConfig

	robPrime entryDeque   // dispatched, unsteered entries in dispatch order
	queues   []entryDeque // commit queues (FIFO in steering order)
	brcqLive []int        // uncommitted branches resident per BR-CQ

	cqt     []cqtSlot // branch seq → queue, sorted by seq
	cqtLive int       // cqt slots whose branch is still unresolved

	cit    []int // trace indices of live CIT entries
	citMin int   // smallest index in cit (intMax when empty)
	rr     int   // round-robin start among BR-CQs at commit
}

type cqtSlot struct {
	seq    int64
	queue  int
	branch *Entry
}

const intMax = int(^uint(0) >> 1)

func newNorebaPolicy(cfg SelectiveROBConfig) *norebaPolicy {
	return &norebaPolicy{
		cfg:      cfg,
		queues:   make([]entryDeque, 1+cfg.NumBRCQs),
		brcqLive: make([]int, cfg.NumBRCQs),
		citMin:   intMax,
	}
}

// reset empties every structure for a new run, keeping storage.
func (p *norebaPolicy) reset() {
	queues := p.queues
	for i := range queues {
		queues[i] = queues[i].cleared()
	}
	clear(p.brcqLive)
	*p = norebaPolicy{
		cfg:      p.cfg,
		robPrime: p.robPrime.cleared(),
		queues:   queues,
		brcqLive: p.brcqLive,
		cqt:      p.cqt[:0],
		cit:      p.cit[:0],
		citMin:   intMax,
	}
}

func (p *norebaPolicy) dispatch(_ *Core, e *Entry) { p.robPrime.push(e) }

// resolve keeps the live-CQT count current: a resolved branch no longer
// steers dependents, so its slot becomes reusable.
func (p *norebaPolicy) resolve(_ *Core, e *Entry) {
	if e.cqtCounted {
		p.cqtLive--
		e.cqtCounted = false
	}
}

func (p *norebaPolicy) queueSize(q int) int {
	if q == 0 {
		return p.cfg.PRCQSize
	}
	return p.cfg.BRCQSize
}

// cqtFind returns the index of the slot for seq, or -1. Slots are inserted
// in steering order, which is age order, so the slice stays seq-sorted.
func (p *norebaPolicy) cqtFind(seq int64) int {
	lo, hi := 0, len(p.cqt)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.cqt[mid].seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(p.cqt) && p.cqt[lo].seq == seq {
		return lo
	}
	return -1
}

func (p *norebaPolicy) cqtRemove(seq int64) {
	i := p.cqtFind(seq)
	if i < 0 {
		return
	}
	if q := p.cqt[i].queue; q > 0 {
		p.brcqLive[q-1]--
	}
	copy(p.cqt[i:], p.cqt[i+1:])
	p.cqt[len(p.cqt)-1] = cqtSlot{}
	p.cqt = p.cqt[:len(p.cqt)-1]
}

// steer moves instructions from the ROB′ head into commit queues (step ❸
// of Table 1). It returns whether it stalled with work remaining.
func (p *norebaPolicy) steer(c *Core, cycle int64) bool {
	steered := 0
	for steered < p.cfg.SteerWidth {
		e := p.robPrime.front()
		if e == nil {
			return false
		}
		// Loads and stores are steered only once their translation
		// succeeded (§4.2).
		if e.isMem() && !(e.issued && e.addrReadyAt <= cycle) {
			return true
		}
		// A synchronisation barrier holds the ROB′ head until every older
		// branch has resolved; it then commits strictly in order (§4.5).
		if e.isFence() && !c.allOlderBranchesResolved(e) {
			return true
		}

		q, ok := p.chooseQueue(c, e, cycle)
		if !ok {
			return true
		}
		if p.queues[q].len() >= p.queueSize(q) {
			return true
		}
		if e.isCondBranch() && e.dep.BranchID > 0 {
			if p.cqtLive >= p.cfg.CQTSize {
				c.stats.CQTFullStalls++
				return true
			}
			p.cqt = append(p.cqt, cqtSlot{seq: e.Seq(), queue: q, branch: e})
			if !e.resolved {
				p.cqtLive++
				e.cqtCounted = true
			}
			if q > 0 {
				p.brcqLive[q-1]++
			}
		}

		p.robPrime.popFront()
		e.steered = true
		e.queue = q
		p.queues[q].push(e)
		c.robOcc--
		c.stats.Steered++
		c.activity++
		steered++
	}
	return false
}

// liveCQT recounts CQT slots for still-unresolved branches; the hot path
// uses the maintained cqtLive counter, this re-derivation backs the
// sanitizer's cross-check.
func (p *norebaPolicy) liveCQT() int {
	n := 0
	for i := range p.cqt {
		if !p.cqt[i].branch.resolved {
			n++
		}
	}
	return n
}

// chooseQueue applies the steering rules. ok=false means the head must
// stall this cycle.
func (p *norebaPolicy) chooseQueue(c *Core, e *Entry, cycle int64) (int, bool) {
	// Resolve the instruction's own dependence to "free" or "queue q".
	depQueue := -1 // -1: no live governing branch
	switch {
	case e.dep.DepSeq == DepOrdered:
		// Invalid BIT reference (e.g. a loop's first iteration): serialise
		// until every older branch has resolved.
		if !c.allOlderBranchesResolved(e) {
			return 0, false
		}
	case e.dep.DepSeq >= 0:
		if i := p.cqtFind(e.dep.DepSeq); i >= 0 {
			if !p.cqt[i].branch.resolved {
				// Live (unresolved) governing branch: follow its queue.
				depQueue = p.cqt[i].queue
			}
			// Otherwise the governing branch has resolved: it is no longer
			// "live" and its dependents flow through the primary queue.
		} else {
			idx := int(e.dep.DepSeq)
			switch {
			case c.win.isCommitted(idx):
				// Governing branch committed: dependence satisfied.
			case !c.win.isFetched(idx):
				// Governing instance was skipped by window fetch: this is
				// wrong-path-dependent work; hold it at the head until the
				// recovery squashes it.
				return 0, false
			default:
				// Governing branch fetched but not yet steered — it is
				// older, so it must be blocked at the head itself; stall.
				return 0, false
			}
		}
	}

	if e.isCondBranch() || e.isJalr() {
		marked := e.isCondBranch() && e.dep.BranchID > 0
		if !marked {
			// Unmarked control transfer: no compiler information, so the
			// hardware serialises at it (commit degenerates to in-order
			// across it).
			if !e.resolved {
				return 0, false
			}
			if depQueue >= 0 {
				return depQueue, true
			}
			return 0, true
		}
		// Marked branch. A resolved branch flows with its governing queue
		// (or PR-CQ); an unresolved branch ALWAYS takes a BR-CQ — steering
		// it into PR-CQ behind a live parent would block the primary queue
		// for its whole resolution latency. Cross-queue ordering stays
		// non-speculative via the commit-time dep-committed check.
		//
		// BR-CQs are FIFOs, so several unresolved branches may share one
		// queue (they then drain in steering order); an empty, branch-free
		// queue is preferred so that independent branches commit
		// independently (the astar case of §3), and the least-occupied
		// queue is used otherwise. When all BR-CQs are full the head
		// stalls — this is Figure 9's saturation knob.
		if e.resolved {
			if depQueue >= 0 {
				return depQueue, true
			}
			return 0, true
		}
		for k := 0; k < p.cfg.NumBRCQs; k++ {
			if p.brcqLive[k] == 0 && p.queues[k+1].len() == 0 {
				return k + 1, true
			}
		}
		best, bestLen := -1, 1<<30
		for k := 0; k < p.cfg.NumBRCQs; k++ {
			if n := p.queues[k+1].len(); n < p.cfg.BRCQSize && n < bestLen {
				best, bestLen = k+1, n
			}
		}
		if best > 0 {
			return best, true
		}
		return 0, false
	}

	if depQueue >= 0 {
		return depQueue, true
	}
	return 0, true
}

func (p *norebaPolicy) commit(c *Core, cycle int64, width int) int {
	if p.steer(c, cycle) {
		c.stats.SteerStalls++
	}

	n := 0
	nbr := p.cfg.NumBRCQs
	for n < width {
		committed := false
		// PR-CQ has priority; BR-CQs are examined round-robin. The rotation
		// is a compare-and-subtract, not a modulo: k = rr+oi-1 stays below
		// 2*nbr, and integer division is measurably hot in this loop.
		for oi := 0; oi <= nbr && n < width; oi++ {
			qi := 0
			if oi > 0 {
				if k := p.rr + oi - 1; k >= nbr {
					qi = 1 + k - nbr
				} else {
					qi = 1 + k
				}
			}
			queue := &p.queues[qi]
			for queue.len() > 0 && queue.front().squashed {
				queue.popFront()
			}
			if queue.len() == 0 {
				continue
			}
			e := queue.front()
			if !c.eligible(e, cycle, true, false) {
				continue
			}
			// Non-speculative release: the governing branch instance must
			// have resolved (§4.2 — dependents "wait for its branch to
			// resolve before becoming eligible for commit"). Same-queue
			// FIFO order gives this for free; the check also covers
			// branches that steered to a different queue. Misprediction
			// windows are covered by the poisoning rules in eligible.
			if !depSatisfied(c, e) {
				continue
			}
			ooo := e.idx != c.win.frontier
			if ooo && len(p.cit) >= p.cfg.CITSize {
				c.stats.CITFullStalls++
				continue
			}
			queue.popFront()
			if e.isCondBranch() {
				p.cqtRemove(e.Seq())
			}
			c.commitEntry(e)
			if ooo {
				p.cit = append(p.cit, e.idx)
				if e.idx < p.citMin {
					p.citMin = e.idx
				}
				c.stats.CITAllocs++
				if int64(len(p.cit)) > c.stats.CITPeak {
					c.stats.CITPeak = int64(len(p.cit))
				}
			}
			n++
			committed = true
		}
		if !committed {
			break
		}
		if p.rr++; p.rr >= nbr {
			p.rr = 0
		}
	}

	// CIT reclamation (§4.3): an entry is dead once no recovery can ever
	// re-fetch its instruction — every branch older than it has resolved
	// (only an older unresolved branch could redirect fetch before it) and
	// the fetch cursor has already passed it (no in-progress refetch still
	// needs the drop). This matches the paper's "commit of the most recent
	// unresolved branch" intent while staying provably safe. The scan is
	// skipped while even the oldest recorded index cannot be freed.
	freeBound := c.win.loadedEnd()
	if b := c.oldestUnresolvedBranch(); b != nil {
		freeBound = b.idx
	}
	bound := freeBound
	if c.cursor < bound {
		bound = c.cursor
	}
	if p.citMin < bound {
		live := p.cit[:0]
		min := intMax
		for _, idx := range p.cit {
			if idx < freeBound && idx < c.cursor {
				continue
			}
			live = append(live, idx)
			if idx < min {
				min = idx
			}
		}
		p.cit = live
		p.citMin = min
	}

	return n
}

func (p *norebaPolicy) squash(c *Core, seq int64) {
	p.robPrime.purgeSquashed()
	for qi := range p.queues {
		p.queues[qi].purgeSquashed()
	}
	w := 0
	for i := range p.cqt {
		s := p.cqt[i]
		if s.branch.squashed {
			if s.branch.cqtCounted {
				p.cqtLive--
				s.branch.cqtCounted = false
			}
			if s.queue > 0 {
				p.brcqLive[s.queue-1]--
			}
			continue
		}
		p.cqt[w] = s
		w++
	}
	for i := w; i < len(p.cqt); i++ {
		p.cqt[i] = cqtSlot{}
	}
	p.cqt = p.cqt[:w]
}

func (p *norebaPolicy) accumulate(c *Core) {
	c.stats.PRCQOcc += int64(p.queues[0].len())
	for k := 0; k < p.cfg.NumBRCQs; k++ {
		c.stats.BRCQOcc += int64(p.queues[k+1].len())
	}
}

// check validates the Selective ROB's private structures for the sanitizer:
// queue capacities and FIFO age order, steering labels, CIT capacity and
// content (only committed, unique trace indices — §4.3), ROB′ content, and
// CQT/BR-CQ branch-liveness consistency including the maintained counters.
func (p *norebaPolicy) check(c *Core, cycle int64) *sanity.Error {
	for qi := range p.queues {
		queue := &p.queues[qi]
		size := p.queueSize(qi)
		if queue.len() > size {
			return sanity.Errorf("cq/capacity", cycle, "queue %d holds %d entries, size %d", qi, queue.len(), size)
		}
		lastSeq := int64(-1)
		for i := 0; i < queue.len(); i++ {
			e := queue.at(i)
			if e.squashed {
				continue
			}
			if !e.steered || e.queue != qi {
				return sanity.At("cq/mislabel", cycle, e.pc, e.Seq(),
					"entry in queue %d has steered=%t queue=%d", qi, e.steered, e.queue)
			}
			if e.committed {
				return sanity.At("cq/committed-resident", cycle, e.pc, e.Seq(),
					"committed entry still resident in queue %d", qi)
			}
			if e.Seq() <= lastSeq {
				return sanity.At("cq/age-order", cycle, e.pc, e.Seq(),
					"queue %d out of steering order: seq %d after seq %d", qi, e.Seq(), lastSeq)
			}
			lastSeq = e.Seq()
		}
	}

	for i := 0; i < p.robPrime.len(); i++ {
		e := p.robPrime.at(i)
		if e.steered {
			return sanity.At("robprime/steered", cycle, e.pc, e.Seq(),
				"steered entry still resident in ROB′")
		}
		if e.squashed {
			return sanity.At("robprime/squashed", cycle, e.pc, e.Seq(),
				"squashed entry resident in ROB′")
		}
	}

	if len(p.cit) > p.cfg.CITSize {
		return sanity.Errorf("cit/capacity", cycle, "CIT holds %d entries, size %d", len(p.cit), p.cfg.CITSize)
	}
	citMin := intMax
	seen := make(map[int]bool, len(p.cit))
	for _, idx := range p.cit {
		if seen[idx] {
			return sanity.Errorf("cit/duplicate", cycle, "trace index %d recorded twice in the CIT", idx)
		}
		seen[idx] = true
		if !c.win.isCommitted(idx) {
			return sanity.Errorf("cit/uncommitted", cycle, "CIT records uncommitted trace index %d", idx)
		}
		if idx < citMin {
			citMin = idx
		}
	}
	if citMin != p.citMin {
		return sanity.Errorf("cit/min", cycle, "CIT min tracker %d but smallest recorded index is %d", p.citMin, citMin)
	}

	if n := p.liveCQT(); n != p.cqtLive {
		return sanity.Errorf("cqt/live-count", cycle, "live-CQT counter %d but %d unresolved CQT branches", p.cqtLive, n)
	}
	if p.cqtLive > p.cfg.CQTSize {
		return sanity.Errorf("cqt/capacity", cycle, "%d live CQT entries, size %d", p.cqtLive, p.cfg.CQTSize)
	}
	counts := make([]int, p.cfg.NumBRCQs)
	lastSeq := int64(-1)
	for i := range p.cqt {
		s := p.cqt[i]
		if s.seq <= lastSeq {
			return sanity.Errorf("cqt/order", cycle, "CQT out of seq order: %d after %d", s.seq, lastSeq)
		}
		lastSeq = s.seq
		if s.branch.squashed {
			return sanity.At("cqt/squashed", cycle, s.branch.pc, s.branch.Seq(),
				"CQT entry for a squashed branch")
		}
		if s.queue > 0 {
			counts[s.queue-1]++
		}
	}
	for k, n := range counts {
		if n != p.brcqLive[k] {
			return sanity.Errorf("cqt/brcq-live", cycle,
				"BR-CQ %d liveness counter %d but %d CQT branches map to it", k, p.brcqLive[k], n)
		}
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

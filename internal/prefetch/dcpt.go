// Package prefetch implements the Delta-Correlating Prediction Tables
// (DCPT) data prefetcher the paper's baseline uses (Grannæs, Jahre, Natvig,
// JILP 2011). Each load PC owns a table entry holding a circular buffer of
// recent address deltas; on every access the two most recent deltas are
// pattern-matched against the delta history, and the deltas that followed
// the previous occurrence of that pair generate prefetch candidates.
package prefetch

// numDeltas is the per-entry delta-history size.
const numDeltas = 16

// entry is one DCPT row.
type entry struct {
	pc           int
	lastAddr     int64
	lastPrefetch int64
	deltas       [numDeltas]int64
	head         int
	valid        bool
	// cands backs the candidate slice Train returns for this row, so
	// prediction allocates nothing. A match leaves at most numDeltas-2
	// deltas to replay.
	cands [numDeltas]int64
}

// DCPT is the delta-correlating prediction table.
type DCPT struct {
	entries []entry
	degree  int // max prefetches issued per access

	// Trained counts table updates; Predicted counts candidate addresses
	// produced.
	Trained   int64
	Predicted int64
}

// New returns a DCPT with the given number of table entries and prefetch
// degree.
func New(tableSize, degree int) *DCPT {
	if tableSize < 1 {
		tableSize = 1
	}
	if degree < 1 {
		degree = 4
	}
	return &DCPT{entries: make([]entry, tableSize), degree: degree}
}

func (d *DCPT) slot(pc int) *entry { return &d.entries[pc%len(d.entries)] }

// Clone returns an independent deep copy of the table, training statistics
// included. The delta histories are value arrays, so copying the entry slice
// copies everything.
func (d *DCPT) Clone() *DCPT {
	cp := &DCPT{}
	cp.CopyFrom(d)
	return cp
}

// CopyFrom makes d an independent copy of src, training statistics
// included, reusing d's table storage.
func (d *DCPT) CopyFrom(src *DCPT) {
	entries := d.entries
	*d = *src
	d.entries = append(entries[:0], src.entries...)
}

// Train records a load at pc touching addr and returns the prefetch
// candidate addresses predicted by delta correlation. The slice is valid
// until the next Train of a PC sharing pc's table row.
func (d *DCPT) Train(pc int, addr int64) []int64 {
	d.Trained++
	e := d.slot(pc)
	if !e.valid || e.pc != pc {
		*e = entry{pc: pc, lastAddr: addr, valid: true}
		return nil
	}
	delta := addr - e.lastAddr
	if delta == 0 {
		return nil
	}
	e.lastAddr = addr
	e.deltas[e.head] = delta
	e.head = (e.head + 1) % numDeltas

	cands := d.correlate(e, addr)
	if len(cands) > 0 {
		e.lastPrefetch = cands[len(cands)-1]
	}
	d.Predicted += int64(len(cands))
	return cands
}

// correlate searches the delta buffer (newest to oldest) for the most
// recent earlier occurrence of the two newest deltas, then replays the
// deltas that followed it.
func (d *DCPT) correlate(e *entry, addr int64) []int64 {
	get := func(i int) int64 { // i = 0 newest
		return e.deltas[(e.head-1-i+2*numDeltas)%numDeltas]
	}
	d1, d2 := get(0), get(1)
	if d2 == 0 {
		return nil
	}
	// Find the pair (d2, d1) at an older position j (j = index of the d1
	// element of the matched pair, newest-relative).
	match := -1
	for j := 2; j < numDeltas-1; j++ {
		if get(j) == d1 && get(j+1) == d2 {
			match = j
			break
		}
	}
	if match == -1 {
		return nil
	}
	// Replay the deltas that followed the match (positions match-1 … 0).
	out := e.cands[:0]
	a := addr
	for j := match - 1; j >= 0 && len(out) < d.degree; j-- {
		dd := get(j)
		if dd == 0 {
			break
		}
		a += dd
		// Suppress duplicates already prefetched.
		if a == e.lastPrefetch {
			continue
		}
		out = append(out, a)
	}
	return out
}

package compiler

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"sync"

	"github.com/noreba-sim/noreba/internal/isa"
	"github.com/noreba-sim/noreba/internal/program"
)

// Options configures the branch-dependent code detection pass.
type Options struct {
	// NumIDs is the number of compiler branch IDs available, matching the
	// hardware BIT size (Table 2: 8 entries → IDs 1..7; 0 is reserved for
	// "independent").
	NumIDs int
	// MaxRegionLen caps a single setDependency's NUM field; longer regions
	// are fragmented into several setup instructions (§6.1.2 discusses the
	// resulting overhead).
	MaxRegionLen int
	// MarkLoopBranches controls whether loop-closing branches (branches
	// inside their own control-dependent region) are marked. Marking them
	// makes the entire loop body a dependent region: one setup instruction
	// per block per iteration for no commit benefit, since nearly every
	// instruction is dependent anyway. Left unmarked (the default), such a
	// branch simply blocks the Selective ROB head until it resolves —
	// which is cheap, because loop branches resolve quickly — and costs no
	// fetch slots. The ablation benchmarks flip this knob.
	MarkLoopBranches bool
}

// DefaultOptions mirrors the paper's hardware configuration.
func DefaultOptions() Options {
	return Options{NumIDs: 8, MaxRegionLen: 31}
}

// BranchMeta describes one conditional branch in the final, annotated image.
type BranchMeta struct {
	PC       int
	Marked   bool
	ID       int64
	ReconvPC int // PC of the reconvergence point; -1 when none exists
	// TakenLen and FallLen are the static instruction counts from the
	// branch to the reconvergence point along the taken and fall-through
	// paths (shortest block path); used by the timing model to size the
	// wrong-path fetch window.
	TakenLen int
	FallLen  int
	// StaticDeps counts instructions statically marked dependent on this
	// branch.
	StaticDeps int
}

// Meta is the per-image branch metadata the cycle model consumes.
type Meta struct {
	// Branches maps the PC of every conditional branch to its metadata.
	Branches map[int]*BranchMeta
}

// Stats summarises what the pass did.
type Stats struct {
	CondBranches    int
	MarkedBranches  int
	Regions         int
	SetupInsts      int
	DependentInsts  int
	OriginalInsts   int
	AnnotatedInsts  int
	ChainExtensions int
}

// Result is the output of Compile: the annotated program, its laid-out
// image, branch metadata and pass statistics.
type Result struct {
	Program *program.Program
	Image   *program.Image
	Meta    *Meta
	Stats   Stats

	hashOnce sync.Once
	hash     [sha256.Size]byte
}

// ImageHash returns Image.ContentHash(), computed on first use and then
// carried with the result: every plan key, plan load and plan encode for
// this compiled program shares one pass over the image. Image must not be
// modified once the hash has been taken.
func (r *Result) ImageHash() [sha256.Size]byte {
	r.hashOnce.Do(func() { r.hash = r.Image.ContentHash() })
	return r.hash
}

// Compile runs the full branch-dependent code detection pass (§3 steps A–D)
// on p and returns the annotated program. p is not modified.
func Compile(p *program.Program, opt Options) (*Result, error) {
	if opt.NumIDs <= 1 {
		return nil, fmt.Errorf("compiler: NumIDs must be at least 2, got %d", opt.NumIDs)
	}
	if opt.MaxRegionLen <= 0 {
		opt.MaxRegionLen = DefaultOptions().MaxRegionLen
	}
	for _, b := range p.Blocks {
		for _, in := range b.Insts {
			if in.Op.IsSetup() {
				return nil, fmt.Errorf("compiler: program %s already contains setup instructions", p.Name)
			}
		}
	}

	a, err := Analyze(p)
	if err != nil {
		return nil, err
	}

	st := &passState{a: a, opt: opt}
	st.cdSizes()

	// Dep assignment and ID allocation interact: a branch that cannot get
	// an ID must be unmarked, which changes dependence choices. Iterate —
	// the unmarked set only grows, so this terminates.
	unmarked := make([]bool, len(a.branches))
	if !opt.MarkLoopBranches {
		for k, br := range a.branches {
			if br.cd[br.block] {
				// The branch reaches itself before its reconvergence point:
				// a loop-closing branch whose dependent region is the whole
				// body. See Options.MarkLoopBranches.
				unmarked[k] = true
			}
		}
	}
	// §4.5: no marked region may span a synchronisation barrier — the pass
	// runs only between fences, so a branch whose control-dependent region
	// contains one stays unmarked (the hardware serialises there anyway).
	for k, br := range a.branches {
		for b, in := range br.cd {
			if !in {
				continue
			}
			for _, inst := range p.Blocks[b].Insts {
				if inst.Op.IsFence() {
					unmarked[k] = true
				}
			}
		}
	}
	for {
		st.assignDeps(unmarked)
		st.fixupChains(unmarked)
		failed := st.allocateIDs(unmarked)
		if failed == -1 {
			break
		}
		unmarked[failed] = true
	}

	annotated := st.emit()
	img, err := annotated.Layout()
	if err != nil {
		return nil, err
	}
	meta := st.buildMeta(annotated, img)

	st.stats.CondBranches = countCondBranches(p)
	st.stats.OriginalInsts = countInsts(p)
	st.stats.AnnotatedInsts = countInsts(annotated)
	return &Result{Program: annotated, Image: img, Meta: meta, Stats: st.stats}, nil
}

type passState struct {
	a   *Analysis
	opt Options

	cdSize []int
	// chosen[block][idx] is the branch key instruction (block,idx) is
	// marked dependent on, or -1.
	chosen [][]int
	// brDep[key] is the branch key that branch key's own instruction is
	// marked dependent on (the dependence chain), or -1.
	brDep []int
	ids   []int64 // assigned compiler ID per branch key; 0 = unmarked
	stats Stats
}

func (st *passState) cdSizes() {
	st.cdSize = make([]int, len(st.a.branches))
	for k, br := range st.a.branches {
		n := 0
		for _, in := range br.cd {
			if in {
				n++
			}
		}
		st.cdSize[k] = n
	}
}

// candidates returns the branch keys instruction (b,j) must wait for:
// the innermost control dependence plus every data dependence, excluding
// unmarked branches (those serialise commit in hardware instead).
func (st *passState) candidates(b, j int, unmarked []bool) []int {
	deps := st.a.deps[b][j]
	if len(deps) == 0 {
		return nil
	}
	innermost, innerSize := -1, 1<<30
	var out []int
	for key, kind := range deps {
		if unmarked[key] {
			continue
		}
		if kind&depControl != 0 {
			sz := st.cdSize[key]
			if sz < innerSize || (sz == innerSize && st.a.branches[key].pos > st.a.branches[innermost].pos) {
				innermost, innerSize = key, sz
			}
		}
	}
	for key, kind := range deps {
		if unmarked[key] {
			continue
		}
		if kind&depData != 0 || key == innermost {
			out = append(out, key)
		}
	}
	sort.Ints(out)
	return out
}

// choose picks the dynamically most recent candidate: same-iteration
// branches (position before the instruction) beat loop-carried ones
// (position after, reached via a back edge), and within each group the
// closest wins.
func (st *passState) choose(cands []int, instPos int) int {
	best, bestKey := -1, -1
	for _, key := range cands {
		p := st.a.branches[key].pos
		var dist int
		if p < instPos {
			dist = instPos - p // same traversal: p..inst
		} else {
			dist = instPos - p + st.a.numInsts // loop-carried: previous instance
		}
		if bestKey == -1 || dist < best {
			best, bestKey = dist, key
		}
	}
	return bestKey
}

func (st *passState) assignDeps(unmarked []bool) {
	st.chosen = make([][]int, len(st.a.prog.Blocks))
	for b := range st.a.prog.Blocks {
		st.chosen[b] = make([]int, len(st.a.prog.Blocks[b].Insts))
		for j := range st.chosen[b] {
			cands := st.candidates(b, j, unmarked)
			st.chosen[b][j] = st.choose(cands, st.a.layoutPos[b][j])
		}
	}
	st.brDep = make([]int, len(st.a.branches))
	for k, br := range st.a.branches {
		st.brDep[k] = st.chosen[br.block][len(st.a.prog.Blocks[br.block].Insts)-1]
	}
}

// covers reports whether walking the dependence chain from branch c reaches
// branch o. Chains are bounded by the branch count (loop-carried edges make
// the static graph cyclic; dynamically each hop refers to an older
// instance).
func (st *passState) covers(c, o int) bool {
	for steps := 0; c != -1 && steps <= len(st.a.branches); steps++ {
		if c == o {
			return true
		}
		c = st.brDep[c]
	}
	return false
}

// fixupChains enforces that when an instruction has several true branch
// dependencies but can carry only one BranchID, the chosen branch's
// dependence chain transitively covers the others (FIFO commit-queue
// ordering then guarantees safety). Missing coverage is added by extending
// the chain at its tail.
func (st *passState) fixupChains(unmarked []bool) {
	for b := range st.a.prog.Blocks {
		for j := range st.a.prog.Blocks[b].Insts {
			cands := st.candidates(b, j, unmarked)
			if len(cands) < 2 {
				continue
			}
			chosen := st.chosen[b][j]
			for _, o := range cands {
				if o == chosen || st.covers(chosen, o) {
					continue
				}
				// Walk to the chain tail and link it to o.
				t := chosen
				for steps := 0; st.brDep[t] != -1 && steps <= len(st.a.branches); steps++ {
					t = st.brDep[t]
				}
				if t == o || st.brDep[t] != -1 {
					continue // already cyclic/covered; dynamic semantics keep this safe
				}
				st.brDep[t] = o
				tb := st.a.branches[t].block
				st.chosen[tb][len(st.a.prog.Blocks[tb].Insts)-1] = o
				st.stats.ChainExtensions++
			}
		}
	}
}

// allocateIDs colours branches with IDs 1..NumIDs-1 such that no two
// branches with overlapping live spans share an ID (a same-ID branch inside
// the span would clobber the BIT entry between the producing branch and its
// dependents). Returns the key of a branch that could not be coloured, or
// -1 on success.
func (st *passState) allocateIDs(unmarked []bool) int {
	type span struct {
		key      int
		lo, hi   int
		assigned int64
	}
	var spans []span
	for k, br := range st.a.branches {
		if unmarked[k] {
			continue
		}
		lo, hi := br.pos, br.pos
		for b := range st.a.prog.Blocks {
			for j := range st.a.prog.Blocks[b].Insts {
				if st.chosen[b][j] != k {
					continue
				}
				p := st.a.layoutPos[b][j]
				if p < lo {
					lo = p
				}
				if p > hi {
					hi = p
				}
			}
		}
		spans = append(spans, span{key: k, lo: lo, hi: hi})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })

	st.ids = make([]int64, len(st.a.branches))
	for i := range spans {
		used := map[int64]bool{}
		for j := 0; j < i; j++ {
			if spans[j].hi >= spans[i].lo { // overlap
				used[spans[j].assigned] = true
			}
		}
		var id int64
		for cand := int64(1); cand < int64(st.opt.NumIDs); cand++ {
			if !used[cand] {
				id = cand
				break
			}
		}
		if id == 0 {
			return spans[i].key
		}
		spans[i].assigned = id
		st.ids[spans[i].key] = id
	}
	return -1
}

// emit rebuilds the program with setBranchId before every marked branch and
// setDependency heading every maximal run of same-dependence instructions
// (step D).
func (st *passState) emit() *program.Program {
	out := program.New(st.a.prog.Name)
	out.Data = st.a.prog.Data
	out.FData = st.a.prog.FData
	out.ValidRanges = st.a.prog.ValidRanges

	isMarkedTerm := func(b int) bool {
		for _, br := range st.a.branches {
			if br.block == b && st.ids[br.key] != 0 {
				return true
			}
		}
		return false
	}
	branchByBlock := func(b int) *branchSite {
		for _, br := range st.a.branches {
			if br.block == b {
				return br
			}
		}
		return nil
	}

	for bi, blk := range st.a.prog.Blocks {
		nb, _ := out.AddBlock(blk.Label)
		j := 0
		for j < len(blk.Insts) {
			key := st.chosen[bi][j]
			if key == -1 || st.ids[key] == 0 {
				if j == len(blk.Insts)-1 && isMarkedTerm(bi) {
					br := branchByBlock(bi)
					nb.Insts = append(nb.Insts, isa.Inst{Op: isa.OpSetBranchID, Imm: st.ids[br.key]})
					st.stats.SetupInsts++
				}
				nb.Insts = append(nb.Insts, blk.Insts[j])
				j++
				continue
			}
			// Maximal run with the same dependence.
			end := j
			for end < len(blk.Insts) && st.chosen[bi][end] == key {
				end++
			}
			for start := j; start < end; start += st.opt.MaxRegionLen {
				stop := start + st.opt.MaxRegionLen
				if stop > end {
					stop = end
				}
				nb.Insts = append(nb.Insts, isa.Inst{
					Op:  isa.OpSetDependency,
					Imm: int64(stop - start),
					Aux: st.ids[key],
				})
				st.stats.SetupInsts++
				st.stats.Regions++
				for k := start; k < stop; k++ {
					if k == len(blk.Insts)-1 && isMarkedTerm(bi) {
						br := branchByBlock(bi)
						nb.Insts = append(nb.Insts, isa.Inst{Op: isa.OpSetBranchID, Imm: st.ids[br.key]})
						st.stats.SetupInsts++
					}
					nb.Insts = append(nb.Insts, blk.Insts[k])
					st.stats.DependentInsts++
				}
			}
			j = end
		}
	}
	for k := range st.a.branches {
		if st.ids[k] != 0 {
			st.stats.MarkedBranches++
		}
	}
	return out
}

// buildMeta computes the final-PC branch metadata over the annotated image.
func (st *passState) buildMeta(annotated *program.Program, img *program.Image) *Meta {
	meta := &Meta{Branches: map[int]*BranchMeta{}}

	// Map analysis branches to final PCs via block labels: the branch is
	// the terminator of its (unchanged) block.
	blockStartPC := func(label string) int { return img.StartOf[label] }
	termPC := func(blockIdx int) int {
		blk := annotated.Blocks[blockIdx]
		return blockStartPC(blk.Label) + len(blk.Insts) - 1
	}

	// Static dependent-instruction counts per branch key.
	depCount := make([]int, len(st.a.branches))
	for b := range st.chosen {
		for _, key := range st.chosen[b] {
			if key != -1 && st.ids[key] != 0 {
				depCount[key]++
			}
		}
	}

	for k, br := range st.a.branches {
		pc := termPC(br.block)
		bm := &BranchMeta{
			PC:         pc,
			Marked:     st.ids[k] != 0,
			ID:         st.ids[k],
			ReconvPC:   blockStartPC(annotated.Blocks[br.reconv].Label),
			StaticDeps: depCount[k],
		}
		bm.TakenLen, bm.FallLen = st.pathLens(annotated, img, br)
		meta.Branches[pc] = bm
	}

	// Record unmarked conditional branches (no reconvergence point) too.
	for pc, in := range img.Insts {
		if in.Op.IsCondBranch() {
			if _, ok := meta.Branches[pc]; !ok {
				meta.Branches[pc] = &BranchMeta{PC: pc, ReconvPC: -1}
			}
		}
	}
	return meta
}

// pathLens returns the static instruction counts from the branch to its
// reconvergence block along the taken and fall-through sides (shortest
// block-level path in the annotated program).
func (st *passState) pathLens(annotated *program.Program, img *program.Image, br *branchSite) (taken, fall int) {
	shortest := func(from int) int {
		if from == br.reconv {
			return 0
		}
		type node struct{ b, dist int }
		best := map[int]int{from: len(annotated.Blocks[from].Insts)}
		queue := []node{{from, len(annotated.Blocks[from].Insts)}}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			if d, ok := best[n.b]; ok && n.dist > d {
				continue
			}
			for _, s := range annotated.Successors(n.b) {
				if s == br.reconv {
					return n.dist
				}
				nd := n.dist + len(annotated.Blocks[s].Insts)
				if d, ok := best[s]; !ok || nd < d {
					best[s] = nd
					queue = append(queue, node{s, nd})
				}
			}
		}
		return len(img.Insts) // unreachable: treat as maximal
	}
	term, _ := annotated.Blocks[br.block].Terminator()
	takenBlock := annotated.BlockIndex(term.Label)
	fallBlock := br.block + 1
	if takenBlock >= 0 {
		taken = shortest(takenBlock)
	}
	if fallBlock < len(annotated.Blocks) {
		fall = shortest(fallBlock)
	}
	return taken, fall
}

func countCondBranches(p *program.Program) int {
	n := 0
	for _, b := range p.Blocks {
		for _, in := range b.Insts {
			if in.Op.IsCondBranch() {
				n++
			}
		}
	}
	return n
}

func countInsts(p *program.Program) int {
	n := 0
	for _, b := range p.Blocks {
		n += len(b.Insts)
	}
	return n
}

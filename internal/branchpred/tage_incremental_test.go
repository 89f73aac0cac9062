package branchpred

import (
	mathbits "math/bits"
	"math/rand"
	"testing"

	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/workgen"
)

// foldHistory is the from-scratch fold the maintained folds must equal: the
// most recent n history bits grouped newest-first into bits-wide chunks
// (newest bit at each chunk's MSB) and XORed together, the final partial
// chunk unshifted. Chunks are extracted word-parallel from the packed
// history; per-chunk bit order is restored with one Reverse32.
func (t *TAGE) foldHistory(n, bits int) uint32 {
	var raw uint32
	for pos := 0; pos+bits <= n; pos += bits {
		raw ^= t.histBits(pos, bits)
	}
	f := reverseBits(raw, bits)
	if cnt := n % bits; cnt > 0 {
		f ^= reverseBits(t.histBits(n-cnt, cnt), cnt)
	}
	return f
}

// histBits returns history bits at ages [pos, pos+width), age pos at bit 0.
func (t *TAGE) histBits(pos, width int) uint32 {
	var v uint64
	if pos >= 64 {
		v = t.hist[1] >> (pos - 64)
	} else {
		v = t.hist[0] >> pos
		if pos+width > 64 {
			v |= t.hist[1] << (64 - pos)
		}
	}
	return uint32(v) & (1<<width - 1)
}

// reverseBits reverses the low width bits of v.
func reverseBits(v uint32, width int) uint32 {
	return mathbits.Reverse32(v) >> (32 - width)
}

// refreshFoldsSlow overwrites the maintained folds with a full foldHistory
// rescan of the packed history per (length, width) pair: the reference the
// O(1) shift update must match bit for bit.
func (t *TAGE) refreshFoldsSlow() {
	for i, n := range histLens {
		t.foldIdx[i] = t.foldHistory(n, taggedBits)
		t.foldTagA[i] = t.foldHistory(n, tagBits)
		t.foldTagB[i] = t.foldHistory(n, tagBits-1)
	}
}

// checkFolds fails unless every maintained fold equals its foldHistory.
func checkFolds(t *testing.T, tg *TAGE, step int, who string) {
	t.Helper()
	for i, n := range histLens {
		for k, f := range [3]uint32{tg.foldIdx[i], tg.foldTagA[i], tg.foldTagB[i]} {
			w := [3]int{taggedBits, tagBits, tagBits - 1}[k]
			if want := tg.foldHistory(n, w); f != want {
				t.Fatalf("%s step %d: fold (length %d, width %d) = %#x, rescan %#x", who, step, n, w, f, want)
			}
		}
	}
}

// TestIncrementalFoldsMatchRescan drives a long random branch stream and
// checks after every history shift that each of the 18 (length, width)
// folds equals the from-scratch foldHistory rescan. The pairs cover every
// case of the shift update: length below width (4/9, 8/9, 4/8), length a
// multiple of width (8/8 … 128/8), and a partial final chunk whose boundary
// bit crosses positions (16/9, 32/9, 64/9, 128/9). Mid-stream, the
// predictor is cloned with Clone and into a used predictor with CloneInto,
// and both copies must keep matching the rescan as they continue on
// different outcomes.
func TestIncrementalFoldsMatchRescan(t *testing.T) {
	var below, multiple, partial int
	for _, n := range histLens {
		for _, w := range []int{taggedBits, tagBits, tagBits - 1} {
			switch {
			case n < w:
				below++
			case n%w == 0:
				multiple++
			default:
				partial++
			}
		}
	}
	if below == 0 || multiple == 0 || partial == 0 {
		t.Fatalf("fold pairs cover %d below-width, %d multiple, %d partial cases; want each", below, multiple, partial)
	}

	rng := rand.New(rand.NewSource(11))
	step := func(tg *TAGE) {
		pc := rng.Intn(1 << 14)
		tg.Predict(pc)
		tg.Update(pc, rng.Intn(3) > 0)
	}
	tg := NewTAGE()
	for i := 0; i < 20000; i++ {
		checkFolds(t, tg, i, "original")
		step(tg)
	}

	used := NewTAGE()
	for i := 0; i < 300; i++ {
		step(used)
	}
	clones := map[string]*TAGE{
		"Clone":     Clone(tg).(*TAGE),
		"CloneInto": CloneInto(used, tg).(*TAGE),
	}
	for who, cp := range clones {
		if cp.foldIdx != tg.foldIdx || cp.foldTagA != tg.foldTagA || cp.foldTagB != tg.foldTagB || cp.hist != tg.hist {
			t.Fatalf("%s: copy's history or folds differ from the source", who)
		}
		for i := 0; i < 2000; i++ {
			step(cp)
			checkFolds(t, cp, i, who)
		}
	}
	for i := 0; i < 2000; i++ {
		step(tg)
		checkFolds(t, tg, i, "original after cloning")
	}
}

// TestIncrementalTAGEMatchesSlowPath runs two predictors in lockstep over
// the conditional-branch streams of real generated workloads: the reference
// predictor has its folds overwritten from a full rescan before every
// Predict and Update, the other keeps them by the O(1) shift update. Every
// per-branch prediction must agree — the maintained folds are
// observationally invisible.
func TestIncrementalTAGEMatchesSlowPath(t *testing.T) {
	for _, p := range workgen.Seeds(6) {
		prog, _, err := workgen.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		img, err := prog.Layout()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := emulator.New(img).Run(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		slow, fast := NewTAGE(), NewTAGE()
		branches := 0
		for i := range tr.Insts {
			d := &tr.Insts[i]
			if !d.Inst.Op.IsCondBranch() {
				continue
			}
			branches++
			slow.refreshFoldsSlow()
			ps := slow.Predict(d.PC)
			pf := fast.Predict(d.PC)
			if ps != pf {
				t.Fatalf("%s: branch %d (seq %d, pc %#x): slow predicts %v, incremental predicts %v",
					p.Name(), branches, d.Seq, d.PC, ps, pf)
			}
			slow.refreshFoldsSlow() // Update probes indices/tags too
			slow.Update(d.PC, d.Taken)
			fast.Update(d.PC, d.Taken)
		}
		if branches == 0 {
			t.Fatalf("%s: no conditional branches in trace", p.Name())
		}
	}
}

package emulator

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// FuzzBroadcastSkew drives random consumer interleavings over a Broadcast
// and checks the bus invariants hold under every schedule:
//
//   - the buffered-record high-water mark never exceeds the skew bound;
//   - every surviving consumer sees the solo stream exactly — no dropped,
//     duplicated or reordered DynInst;
//   - per-consumer Counts match a solo source over the same prefix;
//   - a consumer closing mid-stream leaves a clean prefix behind and never
//     wedges its siblings.
//
// Interleaving randomness comes from per-consumer yield cadences derived
// from the fuzz input, plus the runtime scheduler itself (the test spawns
// one goroutine per consumer, as the experiment runner does).
func FuzzBroadcastSkew(f *testing.F) {
	f.Add(uint8(3), uint16(8), uint16(500), int64(1))
	f.Add(uint8(1), uint16(1), uint16(50), int64(2))
	f.Add(uint8(6), uint16(97), uint16(2000), int64(3))
	f.Add(uint8(2), uint16(4096), uint16(100), int64(4))

	f.Fuzz(func(t *testing.T, nRaw uint8, skewRaw uint16, lenRaw uint16, seed int64) {
		n := int(nRaw)%8 + 1
		skew := int(skewRaw)%4096 + 1
		streamLen := int(lenRaw)%4000 + 1
		tr := synthTrace(streamLen)
		want := tr.Insts
		wantCounts := func() Counts {
			s := tr.Source()
			drain(s)
			return s.Counts()
		}()

		b := NewBroadcast(tr.Source(), skew)
		views := make([]*BusView, n)
		for i := range views {
			views[i] = b.View()
		}

		rng := rand.New(rand.NewSource(seed))
		type plan struct {
			yieldEvery int // Gosched cadence (0 = never)
			closeAt    int // stop and Close after this many records (-1 = run to end)
		}
		plans := make([]plan, n)
		closers := 0
		for i := range plans {
			plans[i].yieldEvery = rng.Intn(7)
			plans[i].closeAt = -1
			// At most n-1 consumers may abandon the stream, so at least one
			// always checks the full-stream property.
			if closers < n-1 && rng.Intn(4) == 0 {
				plans[i].closeAt = rng.Intn(streamLen + 1)
				closers++
			}
		}

		got := make([][]DynInst, n)
		var wg sync.WaitGroup
		for i := range views {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer views[i].Close()
				p := plans[i]
				for k := 0; ; k++ {
					if p.closeAt >= 0 && k == p.closeAt {
						return
					}
					var d DynInst
					if !views[i].NextInto(&d) {
						return
					}
					got[i] = append(got[i], d)
					if p.yieldEvery > 0 && k%p.yieldEvery == 0 {
						runtime.Gosched()
					}
				}
			}(i)
		}
		wg.Wait()

		if p := b.PeakRecords(); p > skew {
			t.Fatalf("peak buffered records %d exceeds skew bound %d", p, skew)
		}
		for i, seq := range got {
			wantLen := streamLen
			if c := plans[i].closeAt; c >= 0 && c < wantLen {
				wantLen = c
			}
			if len(seq) != wantLen {
				t.Fatalf("consumer %d delivered %d records, want %d (closeAt %d)",
					i, len(seq), wantLen, plans[i].closeAt)
			}
			for k, d := range seq {
				if d != want[k] {
					t.Fatalf("consumer %d record %d diverged from the solo stream: got seq %d, want seq %d",
						i, k, d.Seq, want[k].Seq)
				}
			}
			if plans[i].closeAt < 0 {
				if c := views[i].Counts(); c != wantCounts {
					t.Fatalf("consumer %d counts %+v, want solo counts %+v", i, c, wantCounts)
				}
			}
		}
	})
}

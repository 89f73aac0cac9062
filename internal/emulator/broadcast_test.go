package emulator

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/noreba-sim/noreba/internal/isa"
)

// synthTrace builds a materialized trace of n fake dynamic instructions
// cycling through the opcode classes Counts distinguishes, so per-view
// counts exercise every bucket.
func synthTrace(n int) *Trace {
	ops := []isa.Op{isa.OpAdd, isa.OpBeq, isa.OpLw, isa.OpSw, isa.OpSetBranchID, isa.OpSetDependency}
	tr := &Trace{Name: "synth"}
	for i := 0; i < n; i++ {
		d := DynInst{
			Seq:    int64(i),
			PC:     i % 97,
			Inst:   isa.Inst{Op: ops[i%len(ops)]},
			Taken:  i%5 == 0,
			NextPC: (i + 1) % 97,
			Addr:   int64(i * 8),
		}
		tr.Insts = append(tr.Insts, d)
		tr.count(d)
	}
	return tr
}

// drain consumes a source to exhaustion, returning the delivered stream.
func drain(src TraceSource) []DynInst {
	var out []DynInst
	for {
		var d DynInst
		if !src.NextInto(&d) {
			return out
		}
		out = append(out, d)
	}
}

// TestBroadcastMatchesSolo fans a stream out to several concurrent
// consumers and checks each sees exactly the solo stream — no drops, no
// duplicates, no reordering — with counts identical to a solo source.
func TestBroadcastMatchesSolo(t *testing.T) {
	tr := synthTrace(5000)
	want := drain(tr.Source())
	soloCounts := func() Counts {
		s := tr.Source()
		drain(s)
		return s.Counts()
	}()

	for _, skew := range []int{1, 7, 64, 100000} {
		b := NewBroadcast(tr.Source(), skew)
		const n = 4
		views := make([]*BusView, n)
		for i := range views {
			views[i] = b.View()
		}
		got := make([][]DynInst, n)
		var wg sync.WaitGroup
		for i := range views {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = drain(views[i])
			}(i)
		}
		wg.Wait()
		for i := range views {
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("skew %d: view %d stream diverged (got %d records, want %d)",
					skew, i, len(got[i]), len(want))
			}
			if c := views[i].Counts(); c != soloCounts {
				t.Errorf("skew %d: view %d counts %+v, want %+v", skew, i, c, soloCounts)
			}
			if err := views[i].Err(); err != nil {
				t.Errorf("skew %d: view %d err = %v, want nil", skew, i, err)
			}
		}
		if p := b.PeakRecords(); p > skew {
			t.Errorf("skew %d: peak buffered records %d exceeds the bound", skew, p)
		}
	}
}

// TestBroadcastSkewBlocks checks the skew bound actually throttles: with
// a slow consumer parked, a fast one can run exactly maxSkew records ahead
// and then blocks until the laggard advances.
func TestBroadcastSkewBlocks(t *testing.T) {
	tr := synthTrace(1000)
	const skew = 32
	b := NewBroadcast(tr.Source(), skew)
	fast, slow := b.View(), b.View()

	var n atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if !fast.NextInto(&DynInst{}) {
				return
			}
			n.Add(1)
		}
	}()

	// Without the slow consumer moving, the fast one must stop at the bound.
	deadline := time.Now().Add(10 * time.Second)
	for n.Load() < int64(skew) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // would overshoot here if unbounded
	if got := n.Load(); got != int64(skew) {
		t.Fatalf("fast consumer delivered %d records against a parked sibling, want %d", got, skew)
	}

	// Advancing the laggard to the end unblocks the rest of the stream.
	go drain(slow)
	<-done
	if got := n.Load(); got != 1000 {
		t.Fatalf("fast consumer finished with %d records, want 1000", got)
	}
	if p := b.PeakRecords(); p > skew {
		t.Errorf("peak %d exceeds skew bound %d", p, skew)
	}
}

// TestBroadcastCloseUnblocks checks a consumer that abandons the stream
// stops holding the others back once it closes its view.
func TestBroadcastCloseUnblocks(t *testing.T) {
	tr := synthTrace(500)
	b := NewBroadcast(tr.Source(), 16)
	quitter, runner := b.View(), b.View()

	// The quitter reads a few records and detaches.
	for i := 0; i < 3; i++ {
		if !quitter.NextInto(&DynInst{}) {
			t.Fatal("short stream")
		}
	}
	quitter.Close()
	if quitter.NextInto(&DynInst{}) {
		t.Error("closed view still delivering")
	}
	if err := quitter.Err(); err != nil {
		t.Errorf("closed view err = %v, want nil", err)
	}

	// The survivor must reach the end alone.
	if got := len(drain(runner)); got != 500 {
		t.Fatalf("surviving view saw %d records, want 500", got)
	}
}

// TestBroadcastViewAfterStartPanics pins the all-views-before-first-pull
// contract.
func TestBroadcastViewAfterStartPanics(t *testing.T) {
	b := NewBroadcast(synthTrace(10).Source(), 8)
	v := b.View()
	v.NextInto(&DynInst{})
	defer func() {
		if recover() == nil {
			t.Fatal("View after consumption started did not panic")
		}
	}()
	b.View()
}

// TestBroadcastPropagatesSourceError checks a live-machine terminal error
// (here simulated by a faulting source) reaches every view that consumed
// the stream to its end, exactly as a solo source reports it.
func TestBroadcastPropagatesSourceError(t *testing.T) {
	src := &faultingSource{tr: synthTrace(40)}
	b := NewBroadcast(src, 8)
	v1, v2 := b.View(), b.View()
	var wg sync.WaitGroup
	var got1, got2 []DynInst
	wg.Add(2)
	go func() { defer wg.Done(); got1 = drain(v1) }()
	go func() { defer wg.Done(); got2 = drain(v2) }()
	wg.Wait()
	if len(got1) != 40 || len(got2) != 40 {
		t.Fatalf("views saw %d/%d records, want 40 each", len(got1), len(got2))
	}
	if v1.Err() == nil || v2.Err() == nil {
		t.Error("terminal source error not propagated to all views")
	}
}

// faultingSource delivers a trace then ends with a terminal error, like a
// MachineSource whose run ends on a memory exception.
type faultingSource struct {
	tr  *Trace
	pos int
}

func (s *faultingSource) Name() string { return s.tr.Name }
func (s *faultingSource) NextInto(d *DynInst) bool {
	if s.pos >= len(s.tr.Insts) {
		return false
	}
	*d = s.tr.Insts[s.pos]
	s.pos++
	return true
}
func (s *faultingSource) Err() error     { return &MemError{Addr: 4, PC: 2} }
func (s *faultingSource) Counts() Counts { return Counts{} }

// Command noreba-pipeview renders an ASCII pipeline timeline (in the style
// of gem5's O3 pipe viewer) for a window of instructions from a workload:
// when each instruction was fetched, issued, completed and committed, which
// Selective ROB queue it drained through, and whether it retired out of
// order. It makes the paper's mechanism visible: under NOREBA, commit marks
// ('C') appear far to the left of where in-order commit would place them.
//
// The viewer is a pure consumer of the pipeline's structured event stream
// (internal/trace): it attaches a bounded Collector as the core's sink and
// reconstructs each instruction's lifecycle from fetch/issue/writeback/
// commit/squash events, without reaching into core internals.
//
// Usage:
//
//	noreba-pipeview -workload mcf -policy noreba -n 40 -skip 2000
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	noreba "github.com/noreba-sim/noreba"
	"github.com/noreba-sim/noreba/internal/pipeline"
	"github.com/noreba-sim/noreba/internal/trace"
)

// rec is one displayed instruction's lifecycle, folded from the event
// stream. Cycle stamps are for the successful (committed) attempt: a squash
// discards the partial record and the refetch starts a fresh one.
type rec struct {
	seq             int64
	idx, pc         int
	fetched, issued int64
	done, committed int64
	queue           int64
	ooo             bool
}

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "noreba-pipeview: %v\n", err)
		os.Exit(1)
	}
}

// run renders the timeline the flags in args select to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("noreba-pipeview", flag.ContinueOnError)
	var (
		workload   = fs.String("workload", "mcf", "built-in workload name")
		policyName = fs.String("policy", "noreba", "commit policy: inorder|nonspec|noreba|ideal|specbr|spec")
		n          = fs.Int("n", 40, "instructions to display")
		skip       = fs.Int("skip", 2000, "committed instructions to skip (warm-up)")
		width      = fs.Int("width", 100, "timeline width in columns")
		scale      = fs.Int("scale", 0, "workload scale (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	policy, err := pipeline.ParsePolicy(*policyName)
	if err != nil {
		return err
	}
	w, err := noreba.WorkloadByName(*workload)
	if err != nil {
		return err
	}
	s := w.DefaultScale
	if *scale > 0 {
		s = *scale
	}
	res, err := noreba.Compile(w.Build(s))
	if err != nil {
		return err
	}
	cfg := noreba.Skylake(policy)
	// Commit is the last lifecycle event, so capping the collector at
	// skip+n commits retains every event of the displayed instructions
	// while bounding memory on long runs.
	col := &trace.Collector{Limit: *skip + *n}
	cfg.TraceSink = col
	st, err := noreba.SimulateSource(cfg, noreba.StreamTrace(res, 1<<20), res.Meta)
	if err != nil {
		return err
	}

	// Fold the event stream into per-instruction records; commitOrder keeps
	// retirement order for the -skip window.
	live := map[int64]*rec{}
	var commitOrder []*rec
	for _, e := range col.Events() {
		switch e.Kind {
		case trace.KindFetch:
			live[e.Seq] = &rec{seq: e.Seq, idx: e.Idx, pc: e.PC, fetched: e.Cycle}
		case trace.KindIssue:
			if r := live[e.Seq]; r != nil {
				r.issued = e.Cycle
			}
		case trace.KindWriteback:
			if r := live[e.Seq]; r != nil {
				r.done = e.Cycle
			}
		case trace.KindSquash:
			delete(live, e.Seq)
		case trace.KindCommit:
			if r := live[e.Seq]; r != nil {
				r.committed, r.queue, r.ooo = e.Cycle, e.Arg, e.OoO
				commitOrder = append(commitOrder, r)
				delete(live, e.Seq)
			}
		}
	}

	if len(commitOrder) <= *skip {
		return fmt.Errorf("only %d instructions committed; lower -skip", len(commitOrder))
	}
	recs := commitOrder[*skip:]
	if len(recs) > *n {
		recs = recs[:*n]
	}
	// Display in program order.
	sort.Slice(recs, func(i, j int) bool { return recs[i].idx < recs[j].idx })

	lo, hi := recs[0].fetched, recs[0].committed
	for _, r := range recs {
		if r.fetched < lo {
			lo = r.fetched
		}
		if r.committed > hi {
			hi = r.committed
		}
	}
	span := hi - lo + 1
	scaleDiv := int64(1)
	for span/scaleDiv > int64(*width) {
		scaleDiv++
	}
	col2 := func(cyc int64) int { return int((cyc - lo) / scaleDiv) }

	fmt.Fprintf(stdout, "workload %s, policy %s — cycles %d..%d (each column = %d cycle(s))\n",
		*workload, st.Policy, lo, hi, scaleDiv)
	fmt.Fprintf(stdout, "F fetch   I issue   X complete   C commit   c out-of-order commit   | queue id\n\n")
	for _, r := range recs {
		line := make([]byte, col2(hi)+1)
		for i := range line {
			line[i] = ' '
		}
		put := func(cyc int64, ch byte) {
			if p := col2(cyc); p >= 0 && p < len(line) {
				line[p] = ch // later stages overwrite
			}
		}
		for p := col2(r.fetched) + 1; p < col2(r.committed) && p < len(line); p++ {
			line[p] = '.'
		}
		put(r.fetched, 'F')
		if r.issued > 0 {
			put(r.issued, 'I')
		}
		if r.done > 0 {
			put(r.done, 'X')
		}
		commitCh := byte('C')
		if r.ooo {
			commitCh = 'c'
		}
		put(r.committed, commitCh)

		queue := " "
		if r.queue >= 0 {
			queue = fmt.Sprintf("%d", r.queue)
		}
		asm := ""
		if r.pc >= 0 && r.pc < len(res.Image.Insts) {
			asm = res.Image.Insts[r.pc].String()
		}
		fmt.Fprintf(stdout, "%6d %-26s %s |%s\n", r.idx, clip(asm, 26), string(line), queue)
	}
	fmt.Fprintf(stdout, "\nIPC %.2f, %d/%d committed out of order\n", st.IPC(), st.OoOCommitted, st.Committed)
	return nil
}

func clip(s string, n int) string {
	if len(s) > n {
		return s[:n-1] + "…"
	}
	return s
}

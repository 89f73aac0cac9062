// Command noreba-bench regenerates the paper's evaluation figures and
// tables over the synthetic workload suite.
//
// Usage:
//
//	noreba-bench                # all figures, full suite
//	noreba-bench -fig 6         # one figure
//	noreba-bench -quick         # reduced scales and suite (fast)
//	noreba-bench -tables        # Tables 2 and 3 (configurations)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	noreba "github.com/noreba-sim/noreba"
	"github.com/noreba-sim/noreba/internal/experiments"
)

func main() {
	var (
		fig        = flag.Int("fig", 0, "figure number to regenerate (0 = all)")
		quick      = flag.Bool("quick", false, "reduced workload scales and suite")
		tables     = flag.Bool("tables", false, "print configuration tables (Tables 2 and 3)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "noreba-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "noreba-bench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "noreba-bench: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // report live heap, not garbage awaiting collection
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "noreba-bench: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	if *tables {
		fmt.Print(noreba.ConfigTables())
		return
	}

	r := noreba.NewRunner()
	if *quick {
		r = noreba.QuickRunner()
	}

	var figs []experiments.Experiment
	for _, e := range experiments.Experiments() {
		if e.Figure != 0 && (*fig == 0 || *fig == e.Figure) {
			figs = append(figs, e)
		}
	}
	if len(figs) == 0 {
		fmt.Fprintf(os.Stderr, "noreba-bench: no such figure %d (have 1, 6-16)\n", *fig)
		os.Exit(1)
	}

	// Warm the runner through one batched pass over every selected figure's
	// requests: same-workload configurations share a single functional
	// emulation on the broadcast trace bus (across figures, not just within
	// one), and the figures below assemble from guaranteed cache hits.
	var names []string
	for _, f := range figs {
		names = append(names, f.Name)
	}
	start := time.Now()
	reqs, err := r.FigureRequests(names...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "noreba-bench: %v\n", err)
		os.Exit(1)
	}
	if err := r.RunRequests(context.Background(), reqs); err != nil {
		fmt.Fprintf(os.Stderr, "noreba-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("(%d simulation requests warmed with %d functional emulations in %v)\n\n",
		len(reqs), r.EmulationsRun(), time.Since(start).Round(time.Millisecond))

	for _, f := range figs {
		start := time.Now()
		out, err := r.RunExperiment(f.Name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "noreba-bench: figure %d: %v\n", f.Figure, err)
			os.Exit(1)
		}
		fmt.Print(out.String())
		fmt.Printf("(figure %d regenerated in %v)\n\n", f.Figure, time.Since(start).Round(time.Millisecond))
	}
}

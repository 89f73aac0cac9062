package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness report reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs each workload (or only the one named) n times as child
// processes, with seeds first..first+n-1, and prints every end-to-end
// metric's median, quartiles and spread — the distance between the
// quartiles as a share of the median. A metric whose spread exceeds its
// bound in BENCHMARK.json is flagged. It fails if any run fails, any
// output check fails, or any metric is flagged.
func steadiness(root, only string, n int, first uint64, seconds float64) error {
	var spec benchSpec
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &spec); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	flagged := 0
	for _, w := range spec.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			seed := first + uint64(i)
			res, err := child(self, root, w.Name, seed, seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("%s seed %d: %d of %d outputs failed the check", w.Name, seed, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Printf("%s: %d runs, seeds %d..%d, %gs each\n", w.Name, n, first, first+uint64(n)-1, seconds)
		fmt.Printf("  %-12s %12s %12s %12s %8s %7s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, m := range spec.EndToEnd {
			vs := values[m.Name]
			if len(vs) != n {
				return fmt.Errorf("%s: metric %s missing from some runs", w.Name, m.Name)
			}
			q1, med, q3 := quartiles(vs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			mark := ""
			switch {
			case spread > m.Bound:
				mark = "  FLAG: spread above bound"
				flagged++
			case spread > m.Bound/3:
				mark = "  (above a third of the bound)"
			}
			fmt.Printf("  %-12s %12.5g %12.5g %12.5g %7.2f%% %6.0f%%%s\n", m.Name, q1, med, q3, 100*spread, 100*m.Bound, mark)
		}
		for _, m := range spec.EndToEnd {
			fmt.Printf("  %-12s by run: %.4g\n", m.Name, values[m.Name])
		}
	}
	if flagged > 0 {
		return fmt.Errorf("%d metrics spread beyond their bounds", flagged)
	}
	return nil
}

// child runs one benchmark run in a separate process and parses its last
// output line.
func child(self, root, workload string, seed uint64, seconds float64) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Dir = root
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%v: %s", err, strings.TrimSpace(errOut.String()))
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("bad result line: %w", err)
	}
	return &res, nil
}

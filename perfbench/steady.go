package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"text/tabwriter"
)

// steadyMain runs every workload rounds times from this same binary, one
// process per run, with seed firstSeed+r in round r and the workload
// order reversed on odd rounds, so drift over the rounds does not land
// on one workload. For each end-to-end metric it prints the median, the
// quartiles, and their spread (q3-q1)/median against the metric's bound:
// "ok" under a third of the bound, "near" under the bound, "WIDE" over
// it. It exits 1 when any spread is WIDE.
func steadyMain(rounds int, firstSeed uint64, seconds float64, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: steady: %v\n", err)
		return 2
	}
	values := map[string]map[string][]float64{}
	for r := 0; r < rounds; r++ {
		n := len(workloads)
		for k := 0; k < n; k++ {
			name := workloads[k].name
			if r%2 == 1 {
				name = workloads[n-1-k].name
			}
			seed := firstSeed + uint64(r)
			res, err := runChild(self, name, seed, seconds, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: steady: %s seed %d: %v\n", name, seed, err)
				return 1
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for metricName, m := range res.Metrics {
				values[name][metricName] = append(values[name][metricName], m.Value)
			}
			fmt.Fprintf(stderr, "round %d/%d %s seed %d: run_p50_ref %.4f\n", r+1, rounds, name, seed, res.Metrics["run_p50_ref"].Value)
		}
	}

	wide := false
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\tspread\tbound\t\t")
	for _, w := range workloads {
		for _, d := range endToEnd {
			vs := values[w.name][d.Name]
			med := median(vs)
			q1, q3 := quartiles(vs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			verdict := "ok"
			switch {
			case spread > d.Bound:
				verdict = "WIDE"
				wide = true
			case spread > d.Bound/3:
				verdict = "near"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.4f\t%.3g\t%s\t\n", w.name, d.Name, med, q1, q3, spread, d.Bound, verdict)
		}
	}
	tw.Flush()
	if wide {
		return 1
	}
	return 0
}

// runChild runs one untraced benchmark run in a child process and
// decodes the result from its last output line.
func runChild(self, name string, seed uint64, seconds float64, stderr io.Writer) (*result, error) {
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("decode result: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reported %d failed of %d ops", res.Failed, res.Attempted)
	}
	return &res, nil
}

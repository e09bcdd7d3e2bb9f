package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// aaSets is how many sets of runs the A/A report compares.
const aaSets = 2

// runAA is the A/A steadiness report. For each workload (or the named one)
// it runs the untraced benchmark in two sets of opt.aa runs, one child
// process at a time with seeds 1, 2, ..., and prints for every metric the
// median, quartiles, minimum and maximum of each set, the spread
// (interquartile distance over the median, the statistic runs are accepted
// by) and how far the second set's median moved against the first.
func runAA(opt options, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating the benchmark binary: %w", err)
	}
	names := workloadNames()
	if opt.workload != "" {
		names = []string{opt.workload}
	}
	fmt.Fprintf(stdout, "A/A report: %d runs per set, %d sets, %gs measured per run\n", opt.aa, aaSets, opt.seconds)
	fmt.Fprintf(stdout, "%-11s %-13s %3s %12s %12s %12s %12s %12s %8s %8s\n",
		"workload", "metric", "set", "median", "q1", "q3", "min", "max", "spread", "shift")
	for _, name := range names {
		var first map[string]float64
		for set := 0; set < aaSets; set++ {
			values := map[string][]float64{}
			for i := 1; i <= opt.aa; i++ {
				seed := uint64(set*opt.aa + i)
				args := []string{"--workload", name, "--seed", strconv.FormatUint(seed, 10),
					"--seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "--trace", "0", "--work", opt.work}
				ms, err := childMetrics(self, args, stderr)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", name, seed, err)
				}
				for k, v := range ms {
					values[k] = append(values[k], v)
				}
			}
			medians := map[string]float64{}
			keys := make([]string, 0, len(values))
			for k := range values {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				vs := values[k]
				q1, q2, q3 := quartiles(vs)
				s := sortedCopy(vs)
				medians[k] = q2
				shift := "-"
				if first != nil {
					shift = fmt.Sprintf("%+.3f", ratio(q2, first[k])-1)
				}
				fmt.Fprintf(stdout, "%-11s %-13s %3d %12.6g %12.6g %12.6g %12.6g %12.6g %8.3f %8s\n",
					name, k, set+1, q2, q1, q3, s[0], s[len(s)-1], ratio(q3-q1, q2), shift)
			}
			if first == nil {
				first = medians
			}
		}
	}
	return nil
}

// childMetrics runs one benchmark process and returns the metric values of
// its result line, which must report every check passed.
func childMetrics(self string, args []string, stderr io.Writer) (map[string]float64, error) {
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("benchmark run failed: %w", err)
	}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var res struct {
		Correct bool              `json:"correct"`
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("parsing the result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("result line reports failed checks")
	}
	ms := map[string]float64{}
	for k, m := range res.Metrics {
		ms[k] = m.Value
	}
	return ms, nil
}

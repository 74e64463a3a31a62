package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runAA repeats the acceptance procedure the benchmark is held to, on
// one build: per workload, two sets of n untraced runs (seeds seed ..
// seed+n-1, each in a fresh process, as the driver runs them). Within a
// set every end-to-end metric's interquartile spread must stay inside
// its bound (setup_s excepted), and the second set's median must not be
// worse than the first's by more than the bound. With n = 1 this is a
// plain A/A pair.
func runAA(c contract, seed int64, seconds, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bad := 0
	for _, wl := range workloadNames {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = make(map[string][]float64)
			for i := 0; i < n; i++ {
				line, err := runChild(exe, wl, seed+int64(i), seconds)
				if err != nil {
					return err
				}
				if !line.Correct || line.Failed > 0 {
					return fmt.Errorf("%s seed %d: %d of %d operations failed", wl, seed+int64(i), line.Failed, line.Attempted)
				}
				for name, m := range line.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		fmt.Printf("== %s: two sets of %d runs\n", wl, n)
		fmt.Printf("   %-20s %12s %12s %9s %9s %9s %7s\n", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound")
		for _, def := range c.EndToEnd {
			a, b := sets[0][def.Name], sets[1][def.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if def.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			if worse > def.Bound {
				verdict = "SECOND SET WORSE"
				bad++
			} else if def.Name != "setup_s" && (sa > def.Bound || sb > def.Bound) {
				verdict = "SPREAD OVER BOUND"
				bad++
			}
			fmt.Printf("   %-20s %12.6g %12.6g %+8.2f%% %8.2f%% %8.2f%% %6.0f%%  %s\n",
				def.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*def.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric x workload pairs disagree beyond their bounds", bad)
	}
	return nil
}

// runChild runs one untraced contract run in a fresh process and parses
// the result object off the last line of its output.
func runChild(exe, wl string, seed int64, seconds int) (jsonLine, error) {
	var line jsonLine
	cmd := exec.Command(exe, "--workload", wl, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return line, fmt.Errorf("%s seed %d: %w", wl, seed, err)
	}
	out = bytes.TrimSpace(out)
	last := out[bytes.LastIndexByte(out, '\n')+1:]
	if err := json.Unmarshal(last, &line); err != nil {
		return line, fmt.Errorf("%s seed %d: last line is not a result object: %w", wl, seed, err)
	}
	return line, nil
}

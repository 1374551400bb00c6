package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// Each workload runs in a child process of its own, so that peak RSS, the
// Go heap and the runtime's pools start the same way for every workload
// whatever ran before it.

type childResult struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runChild runs one workload in a child, passing its output through, and
// parses the result line.
func runChild(o options, workload string, seed int64) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if o.traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", trace, "--out", o.outDir)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output() // waits for the child to end
	os.Stdout.Write(out)
	var last []byte
	for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
		last = bytes.Clone(sc.Bytes())
	}
	var res childResult
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("%s: no result line (%v; child: %v)", workload, err, runErr)
	}
	return &res, nil
}

// runAll is the single command: every workload, one after the other.
func runAll(o options) (int, error) {
	code := 0
	for _, wl := range workloads {
		res, err := runChild(o, wl.name, o.seed)
		if err != nil {
			return 0, err
		}
		if !res.Correct {
			code = 1
		}
	}
	return code, nil
}

// runSets is the repeatability mode: the whole untraced benchmark o.sets
// times, set s with seed o.seed+s, then for every metric on every workload
// the per-set values, their spread — (Q3-Q1)/median as the driver computes
// it, which for two sets is 1.5 x their difference over their mean —
// against the metric's bound in BENCHMARK.json.
func runSets(o options) (int, error) {
	if o.sets < 2 {
		return 0, fmt.Errorf("--sets needs at least 2 sets to compare")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return 0, fmt.Errorf("repeatability mode reads the bounds from BENCHMARK.json in the current directory: %w", err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return 0, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	o.traced = false
	values := map[string][]float64{} // "workload metric" -> per-set values
	code := 0
	for s := range o.sets {
		for _, wl := range workloads {
			res, err := runChild(o, wl.name, o.seed+int64(s))
			if err != nil {
				return 0, err
			}
			if !res.Correct {
				code = 1
			}
			for name, m := range res.Metrics {
				key := wl.name + " " + name
				values[key] = append(values[key], m.Value)
			}
		}
	}
	fmt.Printf("\n%-13s %-15s %8s %7s  %-6s per-set values\n", "workload", "metric", "spread", "bound", "")
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			vals := values[wl.name+" "+m.Name]
			spread := quartileSpread(vals)
			verdict := "PASS"
			// setup_s is held to its bound between sets of runs, not within one.
			if spread > m.Bound && m.Name != "setup_s" {
				verdict, code = "FAIL", 1
			}
			fmt.Printf("%-13s %-15s %7.2f%% %6.0f%%  %-6s", wl.name, m.Name, 100*spread, 100*m.Bound, verdict)
			for _, v := range vals {
				fmt.Printf(" %.5g", v)
			}
			fmt.Println()
		}
	}
	return code, nil
}

// Command benchmark is the repository's benchmark: four named workloads,
// each checked for correctness, reported as named end-to-end metrics
// (untraced) or per-layer metrics (traced). See README.md and
// ../BENCHMARK.json; run it through run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	outDir   string
	sets     int
}

// workloads are final names: later issues cite (metric, workload) pairs.
var workloads = []struct {
	name string
	make func(seed int64) workload
	// oneCPU: the workload is idle most of the time, so where the kernel puts
	// its threads decides its CPU per op; see packOnOneCPU.
	oneCPU bool
}{
	{name: "bulk_rw", make: func(s int64) workload { return newBulkRW(s) }},
	{name: "kv_serve", make: func(s int64) workload { return newKVServe(s) }},
	{name: "am_faulted", make: func(s int64) workload { return newAMFaulted(s) }},
	{name: "task_stencil", make: func(int64) workload { return newTaskStencil() }, oneCPU: true},
}

func main() {
	if err := pinConditions(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "all", "bulk_rw, kv_serve, am_faulted, task_stencil, or all (each in a child process)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: feeds index, key and fault-plan generation only")
	flag.Float64Var(&o.seconds, "seconds", 30, "timed seconds per workload")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: layer ladder, span files and per-layer metrics")
	flag.StringVar(&o.outDir, "out", filepath.Join("benchmark", "out"), "directory for result and span files")
	flag.IntVar(&o.sets, "sets", 0, "repeatability mode: run every workload untraced this many times and compare against the bounds in BENCHMARK.json")
	flag.Parse()
	o.traced = trace != 0

	code, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(o options) (exitCode int, err error) {
	if o.seconds <= 0 {
		return 0, fmt.Errorf("--seconds must be positive")
	}
	switch {
	case o.sets > 0:
		return runSets(o)
	case o.workload == "all":
		return runAll(o)
	}
	for _, wl := range workloads {
		if wl.name != o.workload {
			continue
		}
		var ladder, notes map[string]float64
		if o.traced {
			if ladder, notes, err = runLadder(o); err != nil {
				return 0, err
			}
		}
		if wl.oneCPU { // after the ladder, which is the same for every workload
			if err := packOnOneCPU(); err != nil {
				return 0, err
			}
		}
		r, err := runWorkload(wl.name, func() workload { return wl.make(o.seed) }, o, ladder)
		if err != nil {
			return 0, err
		}
		for k, v := range notes {
			r.Notes[k] = v
		}
		if err := emit(r, o); err != nil {
			return 0, err
		}
		if !r.Correct {
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("unknown workload %q", o.workload)
}

// emit prints the stamp, every metric by name with its unit, the notes,
// and — last — the one-line JSON result; it also stores the whole report.
func emit(r *report, o options) error {
	defs := endToEnd
	kind := "result"
	if o.traced {
		defs, kind = perLayer, "layers"
	}
	st, err := json.Marshal(r.Stamp)
	if err != nil {
		return err
	}
	fmt.Printf("# %s\n", st)
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted uint64                `json:"attempted"`
		Failed    uint64                `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := r.Metrics[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.Stamp.Workload, d.name)
		}
		fmt.Printf("%-13s %-34s %16.4f %s\n", r.Stamp.Workload, d.name, v, d.unit)
		line.Metrics[d.name] = jsonMetric{v, d.unit}
	}
	for _, k := range slices.Sorted(maps.Keys(r.Notes)) {
		fmt.Printf("%-13s note %-29s %16.4f\n", r.Stamp.Workload, k, r.Notes[k])
	}
	for _, p := range r.Problems {
		fmt.Printf("%-13s CHECK FAILED: %s\n", r.Stamp.Workload, p)
	}

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	full, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.outDir, r.Stamp.Workload+"."+kind+".json"), full, 0o644); err != nil {
		return err
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

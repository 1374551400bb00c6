package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark regression gate (ISSUE 9): compare the medians of a fresh
// `go test -bench -count=N` run against a committed baseline
// (bench_baseline.txt) and fail on
//
//   - >maxRegress (default 15%) throughput regression on any benchmark,
//     after rescaling by the BenchmarkGateCalibrate ratio so the gate
//     tracks machine speed instead of assuming the baseline host; or
//   - ANY allocs/op increase (allocation budgets are machine-independent
//     and ratchet-only); or
//   - a baseline benchmark missing from the new run (a silent rename
//     would otherwise un-gate it).
//
// A benchmark that ran at a different GOMAXPROCS in the new run than in
// the baseline is an error, not a comparison: its times do not compare.
//
// Usage: lamellar-bench gate -baseline bench_baseline.txt -new out.txt

// benchSample is one `BenchmarkX ... ns/op ...` line.
type benchSample struct {
	procs   int // GOMAXPROCS, from the name's -N suffix (none means 1)
	ns      float64
	allocs  float64
	haveMem bool
}

// parseBenchOutput extracts samples from `go test -bench` output,
// keyed by benchmark name with any trailing -GOMAXPROCS suffix split off
// into the sample's procs.
//
// Concatenated runs are detected via the `goos:` header `go test` prints
// once per invocation: repeated samples of one benchmark *within* a
// segment are the normal -count=N case and merge into one median, but
// the same name appearing in two different segments means two distinct
// runs were pasted into one file — silently merging their medians would
// gate against a fabricated distribution, so that is a hard error.
func parseBenchOutput(r io.Reader) (map[string][]benchSample, error) {
	out := make(map[string][]benchSample)
	firstSeg := make(map[string]int)
	seg := 0
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "goos:") {
			seg++
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name, procs := splitProcSuffix(f[0])
		s := benchSample{procs: procs}
		ok := false
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "ns/op":
				s.ns, ok = v, true
			case "allocs/op":
				s.allocs, s.haveMem = v, true
			}
		}
		if !ok {
			continue
		}
		if prev, seen := firstSeg[name]; seen && prev != seg {
			return nil, fmt.Errorf(
				"benchmark %q appears in multiple run segments (concatenated outputs); re-run the suite into one file instead of appending",
				name)
		}
		firstSeg[name] = seg
		out[name] = append(out[name], s)
	}
	return out, sc.Err()
}

// splitProcSuffix splits a trailing "-N" GOMAXPROCS marker off name;
// go test prints none at GOMAXPROCS=1.
func splitProcSuffix(name string) (string, int) {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i], n
		}
	}
	return name, 1
}

// checkProcs returns an error naming the first benchmark (by name) whose
// new samples ran at a different GOMAXPROCS than its baseline samples.
func checkProcs(base, cand map[string][]benchSample) error {
	names := make([]string, 0, len(base))
	for n := range base {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		want := base[n][0].procs
		for _, run := range [][]benchSample{base[n], cand[n]} {
			for _, s := range run {
				if s.procs != want {
					return fmt.Errorf("%s: ran at GOMAXPROCS %d, baseline at %d; re-run with -cpu %d",
						n, s.procs, want, want)
				}
			}
		}
	}
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func medianNS(ss []benchSample) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = s.ns
	}
	return median(xs)
}

func medianAllocs(ss []benchSample) (float64, bool) {
	var xs []float64
	for _, s := range ss {
		if s.haveMem {
			xs = append(xs, s.allocs)
		}
	}
	if len(xs) == 0 {
		return 0, false
	}
	return median(xs), true
}

// gateCalibrateName is the machine-speed yardstick benchmark (see
// internal/bench BenchmarkGateCalibrate).
const gateCalibrateName = "BenchmarkGateCalibrate"

// calibrationRatio returns newMachineTime/baseMachineTime from the
// calibration benchmark, clamped so a corrupt sample cannot disable the
// gate entirely; 1.0 when either side lacks the yardstick.
func calibrationRatio(base, cand map[string][]benchSample) float64 {
	b, okB := base[gateCalibrateName]
	c, okC := cand[gateCalibrateName]
	if !okB || !okC {
		return 1.0
	}
	mb, mc := medianNS(b), medianNS(c)
	if mb <= 0 || mc <= 0 {
		return 1.0
	}
	r := mc / mb
	if r < 0.05 {
		r = 0.05
	}
	if r > 20 {
		r = 20
	}
	return r
}

// compareBench applies the gate rules, writing a row per benchmark and
// returning the failure descriptions.
func compareBench(base, cand map[string][]benchSample, maxRegress float64, out io.Writer) []string {
	ratio := calibrationRatio(base, cand)
	fmt.Fprintf(out, "gate: calibration ratio %.3f (new machine time / baseline), threshold +%.0f%%\n",
		ratio, maxRegress*100)
	names := make([]string, 0, len(base))
	for n := range base {
		if n != gateCalibrateName {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var failures []string
	for _, n := range names {
		cs, ok := cand[n]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from new run", n))
			fmt.Fprintf(out, "  %-40s MISSING\n", n)
			continue
		}
		bNS, cNS := medianNS(base[n]), medianNS(cs)
		adj := cNS / ratio
		delta := 0.0
		if bNS > 0 {
			delta = adj/bNS - 1
		}
		verdict := "ok"
		if delta > maxRegress {
			verdict = "REGRESSION"
			failures = append(failures, fmt.Sprintf(
				"%s: median %.0f ns/op vs baseline %.0f (%.1f%% adjusted, limit %.0f%%)",
				n, cNS, bNS, delta*100, maxRegress*100))
		}
		line := fmt.Sprintf("  %-40s base %12.0f ns/op  new %12.0f ns/op  adj %+6.1f%%",
			n, bNS, cNS, delta*100)
		if bAllocs, okB := medianAllocs(base[n]); okB {
			if cAllocs, okC := medianAllocs(cs); okC {
				line += fmt.Sprintf("  allocs %v -> %v", bAllocs, cAllocs)
				if cAllocs > bAllocs {
					verdict = "ALLOC-REGRESSION"
					failures = append(failures, fmt.Sprintf(
						"%s: allocs/op rose %v -> %v (any increase fails)", n, bAllocs, cAllocs))
				}
			}
		}
		fmt.Fprintf(out, "%s  %s\n", line, verdict)
	}
	return failures
}

// runGate is the `lamellar-bench gate` entry point.
func runGate(args []string) int {
	fs := flag.NewFlagSet("lamellar-bench gate", flag.ExitOnError)
	var (
		baseline   = fs.String("baseline", "bench_baseline.txt", "committed baseline benchmark output")
		newPath    = fs.String("new", "", "fresh benchmark output to gate (required)")
		maxRegress = fs.Float64("max-regress", 0.15, "maximum tolerated median ns/op regression (fraction)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "gate: -new is required")
		return 2
	}
	base, err := loadBenchFile(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gate:", err)
		return 2
	}
	cand, err := loadBenchFile(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gate:", err)
		return 2
	}
	if len(base) == 0 {
		fmt.Fprintf(os.Stderr, "gate: no benchmarks in baseline %s\n", *baseline)
		return 2
	}
	if err := checkProcs(base, cand); err != nil {
		fmt.Fprintln(os.Stderr, "gate:", err)
		return 2
	}
	failures := compareBench(base, cand, *maxRegress, os.Stdout)
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "gate: FAIL (%d):\n", len(failures))
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		return 1
	}
	gated := len(base)
	if _, ok := base[gateCalibrateName]; ok {
		gated--
	}
	fmt.Printf("gate: PASS (%d benchmarks within budget)\n", gated)
	return 0
}

func loadBenchFile(path string) (map[string][]benchSample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := parseBenchOutput(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

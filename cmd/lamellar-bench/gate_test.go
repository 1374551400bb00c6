package main

import (
	"io"
	"strconv"
	"strings"
	"testing"
)

const gateBaseText = `
goos: linux
goarch: amd64
pkg: repro
BenchmarkGateCalibrate-4            5       1000000 ns/op
BenchmarkGateCalibrate-4            5       1010000 ns/op
BenchmarkGateCalibrate-4            5        990000 ns/op
BenchmarkAtomicOpsAggregated-4    200       1000000 ns/op         853 B/op          0 allocs/op
BenchmarkAtomicOpsAggregated-4    200       1020000 ns/op         853 B/op          0 allocs/op
BenchmarkAtomicOpsAggregated-4    200        980000 ns/op         853 B/op          0 allocs/op
BenchmarkInjectorPop_backlog100    1000000   40.0 ns/op
BenchmarkInjectorPop_backlog100    1000000   39.0 ns/op
BenchmarkInjectorPop_backlog100    1000000   41.0 ns/op
PASS
ok      repro   1.2s
`

// mutate rewrites the candidate run from the baseline text with scaled
// ns/op and optionally bumped allocs.
func gateCandText(nsScale float64, calScale float64, allocBump bool) string {
	var b strings.Builder
	for _, line := range strings.Split(gateBaseText, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			b.WriteString(line + "\n")
			continue
		}
		scale := nsScale
		if strings.HasPrefix(f[0], "BenchmarkGateCalibrate") {
			scale = calScale
		}
		for i := 2; i+1 < len(f); i += 2 {
			if f[i+1] == "ns/op" {
				ns, err := strconv.ParseFloat(f[i], 64)
				if err != nil {
					panic(err)
				}
				f[i] = strconv.FormatFloat(ns*scale, 'f', -1, 64)
			}
			if allocBump && f[i+1] == "allocs/op" {
				f[i] = "3"
			}
		}
		b.WriteString(strings.Join(f, " ") + "\n")
	}
	return b.String()
}

func mustParse(t *testing.T, text string) map[string][]benchSample {
	t.Helper()
	m, err := parseBenchOutput(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGateParser(t *testing.T) {
	m := mustParse(t, gateBaseText)
	if len(m) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(m), keys(m))
	}
	// -4 GOMAXPROCS suffixes are stripped; bare names are kept.
	agg, ok := m["BenchmarkAtomicOpsAggregated"]
	if !ok || len(agg) != 3 {
		t.Fatalf("BenchmarkAtomicOpsAggregated: %v", agg)
	}
	if med := medianNS(agg); med != 1000000 {
		t.Errorf("median ns/op = %v, want 1000000", med)
	}
	if a, ok := medianAllocs(agg); !ok || a != 0 {
		t.Errorf("median allocs = %v (%v), want 0", a, ok)
	}
	if _, ok := m["BenchmarkInjectorPop_backlog100"]; !ok {
		t.Error("un-suffixed benchmark name missing")
	}
}

// A >15% median regression must fail the gate; 10% must pass.
func TestGateRegressionThreshold(t *testing.T) {
	base := mustParse(t, gateBaseText)
	var sink strings.Builder

	bad := mustParse(t, gateCandText(1.30, 1.0, false))
	if fails := compareBench(base, bad, 0.15, &sink); len(fails) != 2 {
		t.Errorf("30%% regression: %d failures, want 2 (both non-calibrate rows): %v", len(fails), fails)
	}
	ok := mustParse(t, gateCandText(1.10, 1.0, false))
	if fails := compareBench(base, ok, 0.15, &sink); len(fails) != 0 {
		t.Errorf("10%% regression flagged: %v", fails)
	}
}

// Any allocs/op increase fails, even with time improved.
func TestGateAllocRatchet(t *testing.T) {
	base := mustParse(t, gateBaseText)
	cand := mustParse(t, gateCandText(0.9, 1.0, true))
	fails := compareBench(base, cand, 0.15, io.Discard)
	if len(fails) != 1 || !strings.Contains(fails[0], "allocs/op rose") {
		t.Errorf("alloc increase not caught: %v", fails)
	}
}

// The calibration benchmark rescales the threshold: a run on a machine
// 1.5x slower (calibrate and workloads all 1.5x) passes, while a real
// 1.5x regression with an unchanged calibrate fails.
func TestGateCalibration(t *testing.T) {
	base := mustParse(t, gateBaseText)
	slowMachine := mustParse(t, gateCandText(1.5, 1.5, false))
	if fails := compareBench(base, slowMachine, 0.15, io.Discard); len(fails) != 0 {
		t.Errorf("uniformly slower machine flagged: %v", fails)
	}
	realRegress := mustParse(t, gateCandText(1.5, 1.0, false))
	if fails := compareBench(base, realRegress, 0.15, io.Discard); len(fails) == 0 {
		t.Error("real 1.5x regression passed under calibration")
	}
}

// A benchmark present in the baseline but absent from the new run fails
// (a silent rename would otherwise drop the gate).
func TestGateMissingBenchmark(t *testing.T) {
	base := mustParse(t, gateBaseText)
	cand := mustParse(t, gateBaseText)
	delete(cand, "BenchmarkInjectorPop_backlog100")
	fails := compareBench(base, cand, 0.15, io.Discard)
	if len(fails) != 1 || !strings.Contains(fails[0], "missing") {
		t.Errorf("missing benchmark not caught: %v", fails)
	}
}

// A new run at another GOMAXPROCS than the baseline is an error, not a
// comparison; matching suffixes (or none on both sides) pass.
func TestGateRejectsProcsMismatch(t *testing.T) {
	base := mustParse(t, gateBaseText)
	if err := checkProcs(base, mustParse(t, gateBaseText)); err != nil {
		t.Fatalf("same GOMAXPROCS rejected: %v", err)
	}
	cand := mustParse(t, strings.ReplaceAll(gateBaseText, "Aggregated-4", "Aggregated-2"))
	err := checkProcs(base, cand)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkAtomicOpsAggregated") ||
		!strings.Contains(err.Error(), "GOMAXPROCS 2, baseline at 4") {
		t.Errorf("GOMAXPROCS 4 -> 2 not reported: %v", err)
	}
	// No suffix means GOMAXPROCS 1.
	cand = mustParse(t, strings.ReplaceAll(gateBaseText, "BenchmarkInjectorPop_backlog100 ", "BenchmarkInjectorPop_backlog100-2 "))
	if err := checkProcs(base, cand); err == nil || !strings.Contains(err.Error(), "baseline at 1") {
		t.Errorf("GOMAXPROCS 1 -> 2 not reported: %v", err)
	}
}

func keys(m map[string][]benchSample) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// The same benchmark appearing in two run segments (two goos: headers =
// two concatenated `go test` invocations) must be a hard parse error —
// merging their medians would gate against a fabricated distribution.
// Repeats *within* one segment are the normal -count=N case and merge.
func TestGateRejectsDuplicateAcrossConcatenatedRuns(t *testing.T) {
	_, err := parseBenchOutput(strings.NewReader(gateBaseText + gateBaseText))
	if err == nil {
		t.Fatal("concatenated runs with duplicate benchmarks parsed without error")
	}
	if !strings.Contains(err.Error(), "Benchmark") || !strings.Contains(err.Error(), "segment") {
		t.Errorf("error %q does not explain the duplicate-run problem", err)
	}
	// Sanity: a single segment with -count repeats still parses (the
	// baseline text itself has 3 samples per benchmark).
	mustParse(t, gateBaseText)
}

// Disjoint benchmark sets across segments stay legal: two different
// suites' outputs may be appended into one baseline file.
func TestGateAllowsDisjointConcatenatedRuns(t *testing.T) {
	in := "goos: linux\nBenchmarkOnlyA-4 100 50.0 ns/op\n" +
		"goos: linux\nBenchmarkOnlyB-4 100 70.0 ns/op\n"
	m := mustParse(t, in)
	if len(m) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(m), keys(m))
	}
}

// A headerless hand-built file is one segment: repeats merge as before.
func TestGateHeaderlessFileIsOneSegment(t *testing.T) {
	in := "BenchmarkFoo-4 100 50.0 ns/op\nBenchmarkFoo-4 100 60.0 ns/op\n"
	m := mustParse(t, in)
	if got := len(m["BenchmarkFoo"]); got != 2 {
		t.Errorf("BenchmarkFoo: %d samples, want 2 (merged)", got)
	}
}

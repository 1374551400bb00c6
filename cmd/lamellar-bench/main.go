// Command lamellar-bench regenerates the paper's evaluation figures on
// the simulated substrate. Each subcommand prints the series of one
// figure as an aligned table (and optional CSV):
//
//	lamellar-bench fig2          put-like bandwidth curves (Fig. 2)
//	lamellar-bench fig2-agg      aggregated element-op bandwidth curves
//	lamellar-bench fig3          Histogram MUPS scaling (Fig. 3)
//	lamellar-bench fig4          IndexGather MUPS scaling (Fig. 4)
//	lamellar-bench fig5          Randperm running time (Fig. 5)
//	lamellar-bench ablate-agg    aggregation-threshold sweep (§IV-A remark)
//	lamellar-bench ablate-batch  array sub-batch size sweep (§IV-B remark)
//	lamellar-bench ablate-pes    PEs vs workers-per-PE tradeoff (§IV-B)
//	lamellar-bench taskbench     Task Bench dependency-pattern matrix (ISSUE 9)
//	lamellar-bench gate          benchmark-regression comparator (make bench-gate)
//	lamellar-bench all           everything above
//
// Absolute numbers come from the cost model plus real software overheads;
// the reproduction target is the shape of each figure (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bale/kernels"
	"repro/internal/bench"
)

func main() {
	fs := flag.NewFlagSet("lamellar-bench", flag.ExitOnError)
	var (
		pes      = fs.String("pes", "2,4,8,16,32", "comma-separated PE counts for kernel figures")
		impls    = fs.String("impls", "", "comma-separated implementation subset (default: all)")
		updates  = fs.Int("updates", 100_000, "updates/requests per PE (paper: 10,000,000)")
		table    = fs.Int("table", 1000, "table elements per PE (paper: 1000)")
		bufItems = fs.Int("buf", 10_000, "aggregation buffer limit in operations (paper: 10,000)")
		darts    = fs.Int("darts", 50_000, "randperm darts per PE (paper: 1,000,000)")
		workers  = fs.Int("workers", 2, "worker threads per PE")
		rack     = fs.Int("rack", 0, "PEs per rack for the topology penalty (0 = off)")
		seed     = fs.Int64("seed", 0xBA1E, "workload seed")
		csv      = fs.Bool("csv", false, "also emit CSV")
		quick    = fs.Bool("quick", false, "tiny workloads for a fast smoke run")
	)
	var (
		tbWidth    = fs.Int("tb-width", 0, "taskbench: tasks per timestep (default 256)")
		tbDepth    = fs.Int("tb-depth", 0, "taskbench: timesteps (default 24)")
		tbGrains   = fs.String("grains", "", "taskbench: comma-separated per-task spin durations (default 1us,10us,100us)")
		tbProcs    = fs.String("procs", "", "taskbench: comma-separated GOMAXPROCS sweep (default 1,2,N)")
		tbPatterns = fs.String("patterns", "", "taskbench: pattern subset (default all five)")
		tbReps     = fs.Int("reps", 0, "taskbench: timed reps per cell, best-of (default 3)")
	)
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	if cmd == "gate" {
		// The gate has its own flag set (it shares nothing with the
		// kernel-figure flags above).
		os.Exit(runGate(os.Args[2:]))
	}
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	p := kernels.Params{
		TablePerPE:   *table,
		UpdatesPerPE: *updates,
		BufItems:     *bufItems,
		DartsPerPE:   *darts,
		TargetFactor: 2,
		Seed:         *seed,
	}
	if *quick {
		p.UpdatesPerPE = 10_000
		p.DartsPerPE = 5_000
		p.BufItems = 1_000
	}
	kcfg := bench.KernelFigConfig{
		PECounts:     parseInts(*pes),
		Impls:        parseStrs(*impls),
		Params:       p,
		WorkersPerPE: *workers,
		RackSize:     *rack,
		CSV:          *csv,
	}
	f2 := bench.Fig2Config{CSV: *csv}
	if *quick {
		f2.TotalBytesPerSize = 4 << 20
		f2.MaxTransfers = 2048
	}

	run := func(name string) error {
		switch name {
		case "fig2":
			return bench.RunFig2(f2, os.Stdout)
		case "fig3":
			return bench.RunKernelFig("histo", kcfg, os.Stdout)
		case "fig4":
			return bench.RunKernelFig("ig", kcfg, os.Stdout)
		case "fig5":
			return bench.RunKernelFig("randperm", kcfg, os.Stdout)
		case "ablate-agg":
			return bench.RunAblateAgg(nil, p, os.Stdout)
		case "ablate-batch":
			return bench.RunAblateBatch(nil, p, os.Stdout)
		case "ablate-pes":
			return bench.RunAblatePEs(16, p, os.Stdout)
		case "ablate-rack":
			return bench.RunAblateRack(nil, p, os.Stdout)
		case "fig2-get":
			return bench.RunFig2Get(f2, os.Stdout)
		case "fig2-agg":
			return bench.RunFig2Agg(f2, os.Stdout)
		case "taskbench":
			pats, err := bench.ParsePatterns(*tbPatterns)
			if err != nil {
				return err
			}
			tcfg := bench.TaskBenchConfig{
				Patterns: pats,
				Width:    *tbWidth,
				Depth:    *tbDepth,
				Grains:   parseDurations(*tbGrains),
				Workers:  *workers,
				Procs:    parseInts(*tbProcs),
				Seed:     *seed,
				Reps:     *tbReps,
				CSV:      *csv,
			}
			if *quick {
				tcfg.Width, tcfg.Depth, tcfg.Reps = 64, 8, 1
				if len(tcfg.Grains) == 0 {
					tcfg.Grains = []time.Duration{time.Microsecond}
				}
				if len(tcfg.Procs) == 0 {
					tcfg.Procs = []int{1, 4}
				}
			}
			return bench.RunTaskBench(tcfg, os.Stdout)
		default:
			usage()
			return fmt.Errorf("unknown subcommand %q", name)
		}
	}

	var err error
	if cmd == "all" {
		for _, name := range []string{"fig2", "fig2-get", "fig2-agg", "fig3", "fig4", "fig5", "ablate-agg", "ablate-batch", "ablate-pes", "ablate-rack"} {
			if err = run(name); err != nil {
				break
			}
		}
	} else {
		err = run(cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lamellar-bench:", err)
		os.Exit(1)
	}
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lamellar-bench: bad integer %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func parseDurations(s string) []time.Duration {
	var out []time.Duration
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		d, err := time.ParseDuration(part)
		if err != nil || d <= 0 {
			fmt.Fprintf(os.Stderr, "lamellar-bench: bad duration %q\n", part)
			os.Exit(2)
		}
		out = append(out, d)
	}
	return out
}

func parseStrs(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: lamellar-bench <fig2|fig2-get|fig2-agg|fig3|fig4|fig5|ablate-agg|ablate-batch|ablate-pes|ablate-rack|taskbench|gate|all> [flags]
run "lamellar-bench fig3 -h" for flags; "lamellar-bench gate -h" for the gate's own flags`)
}

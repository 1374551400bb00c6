package bench

import (
	"fmt"
	"io"
	stdruntime "runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/runtime"
	"repro/internal/serde"
)

// Task Bench (ISSUE 9): the dependency-pattern stress matrix from
// "Exploring Performance-Productivity Trade-offs in AMT Runtimes: A Task
// Bench Study" (PAPERS.md), reproduced over this runtime's work-stealing
// executor and AM fabric. An iteration space of width W × depth D tasks
// is connected by one of five dependency patterns; each task spins for a
// calibrated grain (~1µs to ~1ms of CPU), then releases its dependents.
// Tasks are block-distributed over the PEs by index, so edges that cross
// the block boundary become fire-and-forget dependency AMs through the
// aggregation layer and reliable wire — the full task→AM→task pipeline,
// not just the scheduler in isolation.
//
// Patterns (see DESIGN.md §3g for what each stresses):
//
//	stencil  (i,t) ← {i-1, i, i+1} at t-1          local chains + neighbor PE edges
//	fft      (i,t) ← {i, i^2^((t-1) mod log2 W)}   butterfly: distance doubles per level
//	tree     reduce to 1 then broadcast to W        fan-in/fan-out, width collapse
//	sparse   (i,t) ← K strided deps, rotating       fixed-degree scatter
//	random   (i,t) ← K seeded-random deps at t-1    irregular, steal-heavy
//
// The metric per cell is throughput (tasks/s) and parallel efficiency:
// eff = (total·grain / capacity) / wall, capacity = min(GOMAXPROCS,
// PEs·workers). Fine grains expose per-task scheduling+wire overhead;
// coarse grains expose load imbalance.

// TaskBenchConfig parameterizes the pattern × granularity × GOMAXPROCS
// matrix. Zero values select documented defaults.
type TaskBenchConfig struct {
	// Patterns is the subset to run (default: all five).
	Patterns []string
	// Width is tasks per timestep (default 256; fft uses the largest
	// power of two ≤ Width).
	Width int
	// Depth is the number of timesteps (default 24).
	Depth int
	// Grains are the per-task spin durations (default 1µs, 10µs, 100µs).
	Grains []time.Duration
	// PEs and Workers shape the world (defaults 2 and 2).
	PEs     int
	Workers int
	// Procs are the GOMAXPROCS values to sweep (default 1, 2, N where
	// N = NumCPU, floored at 4 so multi-proc scheduling paths are
	// exercised even on small containers).
	Procs []int
	// Seed drives the random pattern's graph (default 0x7B).
	Seed int64
	// Reps takes the best of this many timed reps (default 3).
	Reps int
	// CSV additionally emits CSV.
	CSV bool
}

// TaskBenchPatterns is the canonical pattern order.
var TaskBenchPatterns = []string{"stencil", "fft", "tree", "sparse", "random"}

func (c TaskBenchConfig) withDefaults() TaskBenchConfig {
	if len(c.Patterns) == 0 {
		c.Patterns = TaskBenchPatterns
	}
	if c.Width <= 0 {
		c.Width = 256
	}
	if c.Depth <= 0 {
		c.Depth = 24
	}
	if len(c.Grains) == 0 {
		c.Grains = []time.Duration{time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond}
	}
	if c.PEs <= 0 {
		c.PEs = 2
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if len(c.Procs) == 0 {
		n := stdruntime.NumCPU()
		if n < 4 {
			n = 4
		}
		c.Procs = dedupInts([]int{1, 2, n})
	}
	if c.Seed == 0 {
		c.Seed = 0x7B
	}
	if c.Reps <= 0 {
		c.Reps = 3
	}
	return c
}

func dedupInts(xs []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range xs {
		if x > 0 && !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// ----- dependency graphs -----------------------------------------------------

// tbGraph is one pattern's task DAG. Task (i,t) has id t*width+i; only
// ids with i < widths[t] exist (tree narrows, fft rounds to a power of
// two). Construction is deterministic in (pattern, width, depth, seed).
type tbGraph struct {
	pattern      string
	width, depth int
	widths       []int     // active tasks per level
	ndeps        []int32   // id → dependency count (level 0: 0)
	dependents   [][]int32 // id → ids it releases at the next level
	total        int       // active task count
}

// tbSparseDegree is the dependency degree of the sparse and random
// patterns (capped by width).
const tbSparseDegree = 3

// splitmix64 is the hash behind the random pattern's seeded edges.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// buildTaskGraph constructs the DAG for one pattern.
func buildTaskGraph(pattern string, width, depth int, seed int64) (*tbGraph, error) {
	if width < 1 || depth < 1 {
		return nil, fmt.Errorf("taskbench: width and depth must be >= 1 (got %d x %d)", width, depth)
	}
	g := &tbGraph{pattern: pattern, width: width, depth: depth}
	g.widths = make([]int, depth)

	// Active width per level.
	switch pattern {
	case "stencil", "sparse", "random":
		for t := range g.widths {
			g.widths[t] = width
		}
	case "fft":
		w2 := 1
		for w2*2 <= width {
			w2 *= 2
		}
		for t := range g.widths {
			g.widths[t] = w2
		}
	case "tree":
		g.widths[0] = width
		reducing := true
		for t := 1; t < depth; t++ {
			prev := g.widths[t-1]
			if reducing {
				next := (prev + 1) / 2
				g.widths[t] = next
				if next == 1 {
					reducing = false
				}
			} else {
				next := prev * 2
				if next >= width {
					next = width
					reducing = true
				}
				g.widths[t] = next
			}
		}
	default:
		return nil, fmt.Errorf("taskbench: unknown pattern %q (have %s)",
			pattern, strings.Join(TaskBenchPatterns, ", "))
	}

	// Dependencies of (i,t) as indices at level t-1, t >= 1. Every index
	// returned is < widths[t-1].
	k := tbSparseDegree
	if k > g.widths[0] {
		k = g.widths[0]
	}
	fftStages := 0
	for s := 1; s < g.widths[0]; s *= 2 {
		fftStages++
	}
	var buf [tbSparseDegree + 2]int
	depsOf := func(t, i int) []int {
		w := g.widths[t-1]
		ds := buf[:0]
		switch pattern {
		case "stencil":
			for _, j := range [3]int{i - 1, i, i + 1} {
				if j >= 0 && j < w {
					ds = append(ds, j)
				}
			}
		case "fft":
			ds = append(ds, i)
			if fftStages > 0 {
				if p := i ^ (1 << ((t - 1) % fftStages)); p != i && p < w {
					ds = append(ds, p)
				}
			}
		case "tree":
			wt := g.widths[t]
			switch {
			case wt < w: // reduction: children 2i, 2i+1
				ds = append(ds, 2*i)
				if 2*i+1 < w {
					ds = append(ds, 2*i+1)
				}
			case wt > w: // broadcast: parent i/2
				ds = append(ds, i/2)
			default: // width 1 plateau
				ds = append(ds, i)
			}
		case "sparse":
			stride := w / k
			if stride < 1 {
				stride = 1
			}
			for j := 0; j < k; j++ {
				ds = appendUnique(ds, ((i+j*stride+t)%w+w)%w)
			}
		case "random":
			for j := 0; j < k; j++ {
				h := splitmix64(uint64(seed)<<32 ^ uint64(t)<<20 ^ uint64(i)<<4 ^ uint64(j))
				ds = appendUnique(ds, int(h%uint64(w)))
			}
		}
		return ds
	}

	n := depth * width
	g.ndeps = make([]int32, n)
	g.dependents = make([][]int32, n)
	for t := 0; t < depth; t++ {
		for i := 0; i < g.widths[t]; i++ {
			g.total++
			if t == 0 {
				continue
			}
			id := int32(t*width + i)
			ds := depsOf(t, i)
			g.ndeps[id] = int32(len(ds))
			for _, j := range ds {
				pid := (t-1)*width + j
				g.dependents[pid] = append(g.dependents[pid], id)
			}
		}
	}
	return g, nil
}

func appendUnique(ds []int, j int) []int {
	for _, d := range ds {
		if d == j {
			return ds
		}
	}
	return append(ds, j)
}

// crossPEEdges counts dependency edges whose producer and consumer live
// on different PEs under the run's block distribution — the edges that
// become wire AMs.
func (g *tbGraph) crossPEEdges(pes int) int {
	per := (g.width + pes - 1) / pes
	n := 0
	for id, deps := range g.dependents {
		src := (id % g.width) / per
		for _, d := range deps {
			if (int(d)%g.width)/per != src {
				n++
			}
		}
	}
	return n
}

// ----- calibrated spin work --------------------------------------------------

// tbSpinSink defeats dead-code elimination of the spin kernel.
var tbSpinSink atomic.Uint64

// spinKernel burns CPU for iters xorshift rounds — the task body.
func spinKernel(iters int64) {
	x := uint64(iters)*2 + 1
	for i := int64(0); i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	tbSpinSink.Store(x)
}

// calibrateSpin measures the spin kernel's rate (iterations/ns), best of
// three so scheduler noise only underestimates task grain, never
// inflates it.
func calibrateSpin() float64 {
	spinKernel(1 << 16) // warm
	best := 0.0
	for r := 0; r < 3; r++ {
		const n = 1 << 21
		t0 := time.Now()
		spinKernel(n)
		if el := time.Since(t0); el > 0 {
			if rate := float64(n) / float64(el.Nanoseconds()); rate > best {
				best = rate
			}
		}
	}
	if best <= 0 {
		best = 1
	}
	return best
}

func spinItersFor(grain time.Duration, rate float64) int64 {
	it := int64(rate * float64(grain.Nanoseconds()))
	if it < 1 {
		it = 1
	}
	return it
}

// ----- execution engine ------------------------------------------------------

// tbState is the per-PE extension-state slot the dependency AM resolves
// its current run through.
type tbState struct {
	run atomic.Pointer[tbRun]
}

const tbStateKey = "bench.taskbench"

func tbStateOf(w *runtime.World) *tbState {
	return w.ExtState(tbStateKey, func() any { return new(tbState) }).(*tbState)
}

// tbDepAM notifies the owner of a task that one of its dependencies
// completed on another PE.
type tbDepAM struct {
	Task int64
}

func (a *tbDepAM) MarshalLamellar(e *serde.Encoder) { e.PutUvarint(uint64(a.Task)) }
func (a *tbDepAM) UnmarshalLamellar(d *serde.Decoder) error {
	a.Task = int64(d.Uvarint())
	return d.Err()
}
func (a *tbDepAM) Exec(ctx *runtime.Context) any {
	tbStateOf(ctx.World).run.Load().satisfy(int(a.Task))
	return nil
}

func init() {
	runtime.RegisterAM[tbDepAM]("bench.tbDep")
}

// tbRun is one PE's state for one timed repetition: remaining-dependency
// counters and a ran-once bitmap for the tasks it owns.
type tbRun struct {
	g         *tbGraph
	w         *runtime.World
	spinIters int64
	perPE     int // block size of the index distribution
	remaining []atomic.Int32
	ran       []atomic.Int32
	doubles   atomic.Int64
	doneLocal atomic.Int64
	expect    int64
	done      chan struct{}
}

func newTBRun(g *tbGraph, w *runtime.World, spinIters int64) *tbRun {
	r := &tbRun{
		g: g, w: w, spinIters: spinIters,
		perPE:     (g.width + w.NumPEs() - 1) / w.NumPEs(),
		remaining: make([]atomic.Int32, len(g.ndeps)),
		ran:       make([]atomic.Int32, len(g.ndeps)),
		done:      make(chan struct{}),
	}
	me := w.MyPE()
	for t := 0; t < g.depth; t++ {
		for i := 0; i < g.widths[t]; i++ {
			id := t*g.width + i
			r.remaining[id].Store(g.ndeps[id])
			if r.owner(i) == me {
				r.expect++
			}
		}
	}
	return r
}

func (r *tbRun) owner(i int) int { return i / r.perPE }

// start seeds the calling PE's level-0 tasks. A PE owning no tasks (the
// tree apex levels concentrate on PE 0's block) completes immediately.
func (r *tbRun) start() {
	if r.expect == 0 {
		close(r.done)
		return
	}
	me := r.w.MyPE()
	for i := 0; i < r.g.widths[0]; i++ {
		if r.owner(i) == me {
			r.submit(i)
		}
	}
}

// satisfy records one resolved dependency of task id, submitting it when
// the count hits zero. Runs on the owner PE only (local completions and
// inbound tbDepAM handlers).
func (r *tbRun) satisfy(id int) {
	if r.remaining[id].Add(-1) == 0 {
		r.submit(id)
	}
}

func (r *tbRun) submit(id int) {
	r.w.Pool().Submit(func() { r.exec(id) })
}

// exec is the task body: spin for the grain, then release dependents —
// locally for same-owner edges, via a dependency AM for cross-PE ones
// (fire-and-forget; the aggregation layer coalesces them per
// destination and the reliable wire delivers them exactly once).
func (r *tbRun) exec(id int) {
	if !r.ran[id].CompareAndSwap(0, 1) {
		r.doubles.Add(1)
		return
	}
	spinKernel(r.spinIters)
	me := r.w.MyPE()
	for _, d := range r.g.dependents[id] {
		if pe := r.owner(int(d) % r.g.width); pe == me {
			r.satisfy(int(d))
		} else {
			r.w.ExecAM(pe, &tbDepAM{Task: int64(d)})
		}
	}
	if r.doneLocal.Add(1) == r.expect {
		close(r.done)
	}
}

// tbCellResult is one timed matrix cell.
type tbCellResult struct {
	wall    time.Duration // best rep
	ranPE   []int64       // per-PE completion counts (best rep)
	doubles int64         // tasks that ran more than once (must be 0)
}

// runTaskCell executes one (graph, grain) cell: a world of pes × workers
// over the shmem lamellae, reps timed repetitions, best wall time. The
// caller owns GOMAXPROCS.
func runTaskCell(g *tbGraph, grain time.Duration, pes, workers, reps int, spinRate float64) (tbCellResult, error) {
	res := tbCellResult{ranPE: make([]int64, pes)}
	iters := spinItersFor(grain, spinRate)
	cfg := runtime.Config{
		PEs:          pes,
		WorkersPerPE: workers,
		Lamellae:     runtime.LamellaeShmem,
	}
	ranPE := make([]int64, pes)
	doublesPE := make([]int64, pes)
	err := runtime.Run(cfg, func(w *runtime.World) {
		me := w.MyPE()
		st := tbStateOf(w)
		for rep := 0; rep < reps; rep++ {
			r := newTBRun(g, w, iters)
			st.run.Store(r)
			w.Barrier() // every PE's run installed before any dep AM can arrive
			start := time.Now()
			r.start()
			<-r.done    // all tasks this PE owns completed
			w.WaitAll() // outbound dependency AMs delivered
			w.Barrier() // global completion
			el := time.Since(start)
			doublesPE[me] += r.doubles.Load()
			if me == 0 {
				if res.wall == 0 || el < res.wall {
					res.wall = el
				}
			}
			if rep == reps-1 {
				ranPE[me] = r.doneLocal.Load()
			}
		}
	})
	copy(res.ranPE, ranPE)
	for _, d := range doublesPE {
		res.doubles += d
	}
	return res, err
}

// ----- the matrix ------------------------------------------------------------

// RunTaskBench executes the pattern × grain × GOMAXPROCS matrix and
// prints one row per cell plus a summary table.
func RunTaskBench(cfg TaskBenchConfig, out io.Writer) error {
	cfg = cfg.withDefaults()
	rate := calibrateSpin()
	fmt.Fprintf(out, "TASKBENCH width=%d depth=%d pes=%d workers=%d seed=%#x spin=%.0f iters/us\n",
		cfg.Width, cfg.Depth, cfg.PEs, cfg.Workers, cfg.Seed, rate*1e3)
	table := NewTable("TASKBENCH dependency-pattern matrix", "cell", "value")
	prevProcs := stdruntime.GOMAXPROCS(0)
	defer stdruntime.GOMAXPROCS(prevProcs)
	for _, pattern := range cfg.Patterns {
		g, err := buildTaskGraph(pattern, cfg.Width, cfg.Depth, cfg.Seed)
		if err != nil {
			return err
		}
		cross := g.crossPEEdges(cfg.PEs)
		for _, grain := range cfg.Grains {
			for _, procs := range cfg.Procs {
				stdruntime.GOMAXPROCS(procs)
				res, err := runTaskCell(g, grain, cfg.PEs, cfg.Workers, cfg.Reps, rate)
				if err != nil {
					return err
				}
				if res.doubles != 0 {
					return fmt.Errorf("taskbench: %s: %d tasks ran more than once", pattern, res.doubles)
				}
				var ran int64
				for _, n := range res.ranPE {
					ran += n
				}
				if ran != int64(g.total) {
					return fmt.Errorf("taskbench: %s: ran %d of %d tasks", pattern, ran, g.total)
				}
				ktps := float64(g.total) / res.wall.Seconds() / 1e3
				capacity := procs
				if m := cfg.PEs * cfg.Workers; m < capacity {
					capacity = m
				}
				ideal := time.Duration(int64(g.total) * grain.Nanoseconds() / int64(capacity))
				eff := 100 * float64(ideal) / float64(res.wall)
				cell := fmt.Sprintf("%s/%s/p%d", pattern, grain, procs)
				table.Add(cell, "ktasks_per_s", ktps)
				table.Add(cell, "eff_pct", eff)
				fmt.Fprintf(out, "TASKBENCH %-8s grain=%-6s procs=%-2d %9.1f ktasks/s  eff %5.1f%%  wall %8.2fms  tasks=%d xpe=%d\n",
					pattern, grain, procs, ktps, eff, float64(res.wall.Microseconds())/1e3, g.total, cross)
			}
		}
	}
	stdruntime.GOMAXPROCS(prevProcs)
	table.Render(out)
	if cfg.CSV {
		table.RenderCSV(out)
	}
	return nil
}

// ParsePatterns validates a comma-separated pattern subset.
func ParsePatterns(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		found := sort.SearchStrings(sortedPatterns, p)
		if found == len(sortedPatterns) || sortedPatterns[found] != p {
			return nil, fmt.Errorf("taskbench: unknown pattern %q", p)
		}
		out = append(out, p)
	}
	return out, nil
}

var sortedPatterns = func() []string {
	s := append([]string(nil), TaskBenchPatterns...)
	sort.Strings(s)
	return s
}()

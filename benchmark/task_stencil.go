package main

import (
	"sync/atomic"
	"time"

	"repro/internal/runtime"
	"repro/internal/serde"
)

// task_stencil: a 1-D three-point stencil task graph — task (i,t) needs
// (i-1,t-1), (i,t-1) and (i+1,t-1) — of width 8, block-distributed so each
// PE owns 4 tasks per timestep. A task spins for the grain, then releases
// its dependents: same-PE edges by a counter decrement and a Pool.Submit,
// cross-PE edges by a payload-free fire-and-forget AM. Epochs of 2000
// timesteps. Built here because internal/bench's graph code is unexported.
//
// Chosen because every timestep waits on a one-way cross-PE message and a
// worker wake-up: the scheduler and the idle-path AM latency do the work,
// bytes and aggregation none. Correct means every task ran exactly once.
type taskStencil struct {
	width      int
	steps      int // timesteps per epoch
	grain      time.Duration
	warmSteps  int
	skewExpect uint64 // tests only: added to the task count expected

	spinIters atomic.Int64
}

// newTaskStencil takes no seed: the graph has no random inputs.
func newTaskStencil() *taskStencil {
	return &taskStencil{width: 8, steps: 2000, grain: time.Microsecond, warmSteps: 200}
}

func (s *taskStencil) config() runtime.Config { return worldConfig() }

func (s *taskStencil) params() map[string]any {
	return map[string]any{
		"loop": "closed, one graph at a time", "width": s.width, "timesteps_per_epoch": s.steps,
		"grain_us": float64(s.grain) / 1e3, "pattern": "stencil-1d-3pt, block-distributed",
	}
}

func (s *taskStencil) setup(w *runtime.World) {
	if w.MyPE() == 0 {
		s.spinIters.Store(spinItersFor(s.grain, calibrateSpin()))
	}
	w.Barrier()
	runStencil(w, s.width, s.warmSteps, s.spinIters.Load(), nil)
}

func (s *taskStencil) teardown(*runtime.World) {}

func (s *taskStencil) measure(w *runtime.World, d time.Duration, tr *tracer, out *outcome) {
	me := w.MyPE()
	start := time.Now()
	for e := 0; ; e++ {
		r, wall := runStencil(w, s.width, s.steps, s.spinIters.Load(), tr)
		if tr != nil {
			tr.sample(me, "epoch.end", snapshot(w))
		}
		stop := w.Team().MaxU64(b2u(time.Since(start) >= d)) != 0
		out.mu.Lock()
		out.lat.add([]uint32{ns32(wall / time.Duration(s.steps))})
		out.perStep.add(r.stepTimes(me))
		if me == 0 {
			n := uint64(s.width * s.steps)
			ran, doubles := r.ranOnce(), uint64(r.doubles.Load())
			failed := doubles
			if ran+s.skewExpect != n {
				failed += max(n, ran+s.skewExpect) - min(n, ran+s.skewExpect)
				out.problems = append(out.problems, "task_stencil: tasks that ran exactly once != tasks in the graph")
			}
			if doubles > 0 {
				out.problems = append(out.problems, "task_stencil: a task ran more than once")
			}
			out.attempted += n
			out.failed += min(failed, n)
			out.epochs = append(out.epochs, epoch{ops: n, wall: wall, steps: s.steps})
		}
		out.mu.Unlock()
		if stop {
			return
		}
	}
}

// ----- the graph engine ------------------------------------------------

// stencilRun is one execution of the graph, shared by the PEs (they are
// goroutines of one process): dependence counters, ran-once flags, and the
// time each PE finished each timestep.
type stencilRun struct {
	width, steps, perPE int
	spin                int64
	worlds              []*runtime.World
	remaining           []atomic.Int32 // unmet dependences of task t*width+i
	ran                 []atomic.Int32
	doubles             atomic.Int64
	stepLeft            []atomic.Int32 // tasks PE p still owes timestep t, at p*steps+t
	stepEnd             []int64        // ns after t0 when PE p finished timestep t
	t0                  time.Time
	done                []chan struct{}

	// Tracing only.
	tr    *tracer
	root  []uint64 // span id of each task
	ready []int64  // trace clock when the task was submitted
	sent  []int64  // trace clock when the AM for edge (task, source offset) was launched
}

type stencilShared struct{ run atomic.Pointer[stencilRun] }

func stencilState(w *runtime.World) *stencilShared {
	return w.SharedExtState("benchmark.task_stencil", func() any { return new(stencilShared) }).(*stencilShared)
}

// runStencil collectively executes one graph and returns it with the wall
// time between the barriers around it, as seen by the calling PE.
func runStencil(w *runtime.World, width, steps int, spin int64, tr *tracer) (*stencilRun, time.Duration) {
	me, npes := w.MyPE(), w.NumPEs()
	st := stencilState(w)
	if me == 0 {
		r := &stencilRun{
			width: width, steps: steps, perPE: (width + npes - 1) / npes, spin: spin,
			worlds:    make([]*runtime.World, npes),
			remaining: make([]atomic.Int32, width*steps),
			ran:       make([]atomic.Int32, width*steps),
			stepLeft:  make([]atomic.Int32, npes*steps),
			stepEnd:   make([]int64, npes*steps),
			done:      make([]chan struct{}, npes),
			tr:        tr,
		}
		if tr != nil {
			r.root = make([]uint64, width*steps)
			r.ready = make([]int64, width*steps)
			r.sent = make([]int64, width*steps*3)
		}
		for pe := range r.worlds {
			r.worlds[pe] = w.PeerWorld(pe)
			r.done[pe] = make(chan struct{})
		}
		for t := 0; t < steps; t++ {
			for i := 0; i < width; i++ {
				deps := int32(0)
				if t > 0 {
					deps = int32(min(i+1, width-1) - max(i-1, 0) + 1)
				}
				r.remaining[t*width+i].Store(deps)
				r.stepLeft[r.owner(i)*steps+t].Add(1)
			}
		}
		st.run.Store(r)
	}
	w.Barrier() // the run is published before any dependence AM can arrive
	r := st.run.Load()
	if me == 0 {
		r.t0 = time.Now()
	}
	w.Barrier()
	start := time.Now()
	owns := false
	for i := 0; i < width; i++ {
		if r.owner(i) == me {
			owns = true
			r.submit(i)
		}
	}
	if owns {
		<-r.done[me]
	}
	w.WaitAll() // outbound dependence AMs delivered
	w.Barrier()
	return r, time.Since(start)
}

func (r *stencilRun) owner(i int) int { return i / r.perPE }

func (r *stencilRun) submit(id int) {
	if r.tr != nil {
		r.root[id], r.ready[id] = r.tr.newID(), r.tr.now()
	}
	r.worlds[r.owner(id%r.width)].Pool().Submit(func() { r.exec(id) })
}

func (r *stencilRun) satisfy(id int) {
	if r.remaining[id].Add(-1) == 0 {
		r.submit(id)
	}
}

func (r *stencilRun) exec(id int) {
	if !r.ran[id].CompareAndSwap(0, 1) {
		r.doubles.Add(1)
		return
	}
	t, i := id/r.width, id%r.width
	pe := r.owner(i)
	began := r.tr.now()
	spinKernel(r.spin)
	spun := r.tr.now()
	if t+1 < r.steps {
		for j := max(i-1, 0); j <= min(i+1, r.width-1); j++ {
			d := (t+1)*r.width + j
			if dst := r.owner(j); dst == pe {
				r.satisfy(d)
			} else {
				c0 := r.tr.now()
				if r.tr != nil {
					r.sent[d*3+i-j+1] = c0
				}
				r.worlds[pe].ExecAM(dst, &stencilDepAM{Task: uint64(d), From: uint64(i)})
				if r.tr != nil {
					r.tr.rec(r.root[id], uint64(id), "runtime.World.ExecAM", pe, c0, r.tr.now())
				}
			}
		}
	}
	if r.tr != nil {
		r.tr.rec(r.root[id], uint64(id), "scheduler.Pool.Submit.queue", pe, r.ready[id], began)
		r.tr.rec(r.root[id], uint64(id), "task.spin", pe, began, spun)
		r.tr.put(r.root[id], 0, uint64(id), "task_stencil.task", pe, r.ready[id], r.tr.now())
	}
	if r.stepLeft[pe*r.steps+t].Add(-1) == 0 {
		r.stepEnd[pe*r.steps+t] = int64(time.Since(r.t0))
		if t == r.steps-1 {
			close(r.done[pe])
		}
	}
}

// stepTimes returns how long each timestep after the first took on pe.
func (r *stencilRun) stepTimes(pe int) []uint32 {
	ends := r.stepEnd[pe*r.steps : (pe+1)*r.steps]
	out := make([]uint32, 0, len(ends))
	for t := 1; t < len(ends); t++ {
		out = append(out, ns32(time.Duration(max(ends[t]-ends[t-1], 1))))
	}
	return out
}

func (r *stencilRun) ranOnce() (n uint64) {
	for i := range r.ran {
		n += uint64(r.ran[i].Load())
	}
	return n
}

// stencilDepAM tells the owner of Task that its dependence on column From
// of the previous timestep is met. It carries ids only, no data.
type stencilDepAM struct{ Task, From uint64 }

func (a *stencilDepAM) MarshalLamellar(e *serde.Encoder) {
	e.PutUvarint(a.Task)
	e.PutUvarint(a.From)
}

func (a *stencilDepAM) UnmarshalLamellar(d *serde.Decoder) error {
	a.Task, a.From = d.Uvarint(), d.Uvarint()
	return d.Err()
}

func (a *stencilDepAM) Exec(ctx *runtime.Context) any {
	r := stencilState(ctx.World).run.Load()
	id := int(a.Task)
	if r.tr != nil {
		src := id - r.width + int(a.From) - id%r.width // the task one timestep back in column From
		r.tr.rec(r.root[src], uint64(src), "stencil.dep_delivery", ctx.CurrentPE(),
			r.sent[id*3+int(a.From)-id%r.width+1], r.tr.now())
	}
	r.satisfy(id)
	return nil
}

func init() { runtime.RegisterAM[stencilDepAM]("benchmark.stencilDepAM") }

// ----- calibrated spin work ----------------------------------------------

var spinSink atomic.Uint64

// spinKernel burns CPU for iters xorshift rounds: the task body.
func spinKernel(iters int64) {
	x := uint64(iters)*2 + 1
	for i := int64(0); i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink.Store(x)
}

// calibrateSpin measures the spin kernel's rate in iterations per ns, best
// of three so scheduler noise only underestimates the grain.
func calibrateSpin() float64 {
	spinKernel(1 << 16)
	best := 0.0
	for range 3 {
		const n = 1 << 21
		t0 := time.Now()
		spinKernel(n)
		if el := time.Since(t0); el > 0 {
			best = max(best, float64(n)/float64(el.Nanoseconds()))
		}
	}
	if best <= 0 {
		return 1
	}
	return best
}

func spinItersFor(grain time.Duration, rate float64) int64 {
	return max(int64(rate*float64(grain.Nanoseconds())), 1)
}

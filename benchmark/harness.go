package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/runtime"
)

// workload is one of the four named workloads. All methods except
// config/params run SPMD: once on every PE's own goroutine.
type workload interface {
	config() runtime.Config
	// params are the sizes and rates that define the workload, for the stamp.
	params() map[string]any
	// setup collectively allocates the workload's arrays or store and does a
	// fixed amount of warm-up work (so set-up time is work, not a sleep). It
	// ends with a barrier.
	setup(w *runtime.World)
	// measure runs timed work for about d, checks it, and folds what it saw
	// into out (shared by the PEs). It may be called more than once.
	measure(w *runtime.World, d time.Duration, tr *tracer, out *outcome)
	// teardown collectively releases what setup allocated.
	teardown(w *runtime.World)
}

// epoch is one fixed-size unit of timed work.
type epoch struct {
	ops   uint64
	wall  time.Duration
	steps int // synchronisation steps inside the epoch (0 means 1)
}

func (e epoch) rate() float64 { return float64(e.ops) / e.wall.Seconds() }

// outcome is what one timed window of a workload observed, merged over PEs.
type outcome struct {
	mu        sync.Mutex
	attempted uint64
	failed    uint64   // failed or refused ops + ops whose result failed verification
	problems  []string // one line per failed check

	epochs  []epoch // every epoch: ops_per_s, step_us
	updates []epoch // write-type epochs only (nil: the workload does not split)
	gathers []epoch // read-type epochs only
	lat     samples // every raw latency sample of the workload's blocking op
	loaded  samples // latency at the workload's highest rate (empty: same as lat)
	// ns, how late the open-loop generator issued each request, at the low
	// and at the high rate (kv_serve only).
	genLag, genLagHi samples
	service          samples // low-rate latency from the actual issue, not the due time
	// perStep is every timestep's duration on task_stencil, whose lat cells
	// carry the per-epoch step time instead (README, "Metric cells").
	perStep samples
	// cpuTimed is process CPU over the timed parts only, for a workload whose
	// window also holds untimed work (bulk_rw's index generation); zero means
	// the whole window's CPU counts.
	cpuTimed time.Duration

	// Filled by the harness around measure. peakRSSMB is read as the window
	// ends, before the samples are flattened and sorted for the report.
	wall, cpu time.Duration
	peakRSSMB float64
	c         counters
}

func (o *outcome) problemf(format string, a ...any) {
	o.mu.Lock()
	o.problems = append(o.problems, fmt.Sprintf(format, a...))
	o.mu.Unlock()
}

// window runs one timed measure() between barriers and differences the
// process CPU clock and every PE's counters around it.
func window(w *runtime.World, wl workload, d time.Duration, tr *tracer, out *outcome) {
	w.Barrier()
	before := snapshot(w)
	tr.sample(w.MyPE(), "window.start", before)
	var t0 time.Time
	var cpu0 time.Duration
	if w.MyPE() == 0 {
		t0 = time.Now()
		cpu0, _ = cpuAndRSS()
	}
	wl.measure(w, d, tr, out)
	w.Barrier()
	after := snapshot(w)
	tr.sample(w.MyPE(), "window.end", after)
	out.mu.Lock()
	out.c = out.c.add(after.sub(before))
	if w.MyPE() == 0 {
		cpu1, rss := cpuAndRSS()
		out.wall, out.cpu, out.peakRSSMB = time.Since(t0), cpu1-cpu0, rss
	}
	out.mu.Unlock()
	w.Barrier()
}

// setupRounds is how many times a run sets the workload up; setup_s is the
// median, so one slow world construction does not decide it.
const setupRounds = 5

// report is one run's result.
type report struct {
	Stamp     stamp              `json:"stamp"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Notes are printed and stored but are not gated metrics: fail_frac, the
	// sample counts, and which percentile the gated tails really are.
	Notes map[string]float64 `json:"notes"`
}

// runWorkload sets the workload up setupRounds times (the last one is the
// one measured), runs the timed window(s), and derives the metrics. An
// untraced run yields the end-to-end metrics; a traced run yields the
// per-layer metrics, with ladder holding the workload-independent ones.
func runWorkload(name string, mk func() workload, o options, ladder map[string]float64) (*report, error) {
	d := time.Duration(o.seconds * float64(time.Second))
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	ref, out := new(outcome), new(outcome)
	var setups []float64
	var wl workload
	for round := range setupRounds {
		wl = mk()
		t0 := time.Now()
		var took time.Duration
		err := runtime.Run(wl.config(), func(w *runtime.World) {
			wl.setup(w)
			if w.MyPE() == 0 {
				took = time.Since(t0)
			}
			switch {
			case round < setupRounds-1:
			case o.traced:
				// An untraced quarter-length window first, so the traced
				// half-length window has a reference from the same process.
				window(w, wl, d/4, nil, ref)
				window(w, wl, d/2, tr, out)
			default:
				window(w, wl, d, nil, out)
			}
			wl.teardown(w)
		})
		if err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", name, round, err)
		}
		setups = append(setups, took.Seconds())
	}

	st := newStamp(name, o, wl.params())
	r := &report{Stamp: st, Metrics: map[string]float64{}, Notes: map[string]float64{}}
	for _, oc := range []*outcome{ref, out} {
		r.Attempted += oc.attempted
		r.Failed += oc.failed
		r.Problems = append(r.Problems, oc.problems...)
	}
	if r.Attempted == 0 {
		r.Problems = append(r.Problems, "no operation was attempted")
		r.Attempted = 1
		r.Failed = 1
	}
	r.Correct = r.Failed == 0 && len(r.Problems) == 0
	r.Notes["fail_frac"] = float64(r.Failed) / float64(r.Attempted)

	if !o.traced {
		endToEndMetrics(out, median(setups), r)
		return r, nil
	}
	for k, v := range ladder {
		r.Metrics[k] = v
	}
	counterMetrics(out, r)
	r.Metrics["trace_overhead_pct"] = 100 * (1 - ratio(opsPerS(out), opsPerS(ref)))
	if err := tr.write(filepath.Join(o.outDir, name+".trace.json"), st); err != nil {
		return nil, fmt.Errorf("%s: writing trace: %w", name, err)
	}
	return r, nil
}

func opsPerS(o *outcome) float64 { return medianRate(o.epochs) }

func medianRate(es []epoch) float64 {
	rates := make([]float64, len(es))
	for i, e := range es {
		rates[i] = e.rate()
	}
	return median(rates)
}

// endToEndMetrics fills every end-to-end metric. Where a workload has no
// separate measurement for a metric the cell carries the measurement it
// does have in that dimension (see README, "Metric cells"): total ops for
// update/gather when ops are not split by kind, lat_p99 for loaded_p99 when
// there is one load level, and one step per epoch for step_us.
func endToEndMetrics(o *outcome, setupS float64, r *report) {
	m := r.Metrics
	m["setup_s"] = setupS
	m["ops_per_s"] = opsPerS(o)
	done := float64(o.attempted - o.failed)
	cpu := o.cpu
	if o.cpuTimed > 0 {
		cpu = o.cpuTimed
	}
	m["cpu_us_per_op"] = ratio(float64(cpu.Nanoseconds())/1e3, done)
	m["peak_rss_mb"] = o.peakRSSMB

	m["update_mops"], m["gather_mops"] = m["ops_per_s"]/1e6, m["ops_per_s"]/1e6
	if o.updates != nil {
		m["update_mops"] = medianRate(o.updates) / 1e6
	}
	if o.gathers != nil {
		m["gather_mops"] = medianRate(o.gathers) / 1e6
	}

	lat := o.lat.sorted()
	m["lat_p50_us"] = us(percentile(lat, 50))
	p99, pct := gatedPercentile(lat, 99)
	m["lat_p99_us"] = us(p99)
	r.Notes["lat_samples"] = float64(len(lat))
	r.Notes["lat_tail_pct"] = pct
	m["loaded_p99_us"] = m["lat_p99_us"]
	if loaded := o.loaded.sorted(); len(loaded) > 0 {
		v, pct := gatedPercentile(loaded, 99)
		m["loaded_p99_us"] = us(v)
		r.Notes["loaded_samples"] = float64(len(loaded))
		r.Notes["loaded_tail_pct"] = pct
	}

	// Not gated: they let a reader split kv_serve's lat_p50_us into generator
	// lateness and service time, and see task_stencil's two kinds of timestep.
	if lag := o.genLag.sorted(); len(lag) > 0 {
		r.Notes["gen_lag_p50_us"] = us(percentile(lag, 50))
		r.Notes["gen_lag_p99_us"] = us(percentile(lag, 99))
		r.Notes["service_p50_us"] = us(percentile(o.service.sorted(), 50))
	}
	if steps := o.perStep.sorted(); len(steps) > 0 {
		r.Notes["timestep_p50_us"] = us(percentile(steps, 50))
		r.Notes["timestep_p99_us"] = us(percentile(steps, 99))
	}

	steps := make([]float64, len(o.epochs))
	for i, e := range o.epochs {
		steps[i] = us(int64(e.wall)) / float64(max(e.steps, 1))
	}
	m["step_us"] = median(steps)
	r.Notes["epochs"] = float64(len(o.epochs))
}

// counterMetrics fills the per-layer metrics that are Stats() differences
// over the workload's timed window, and the two kv_serve tail metrics.
func counterMetrics(o *outcome, r *report) {
	m, c := r.Metrics, o.c
	f := func(i int) float64 { return float64(c[i]) }
	ops := float64(o.attempted - o.failed)
	batches := f(cBatches)
	m["fabric.msgs_per_op"] = ratio(f(cFabricMsgs), ops)
	m["fabric.bytes_per_op"] = ratio(f(cFabricBytes), ops)
	m["scheduler.parks_per_kop"] = 1e3 * ratio(f(cPoolParks), ops)
	m["scheduler.steals_per_kop"] = 1e3 * ratio(f(cPoolStolen), ops)
	m["scheduler.busy_frac"] = ratio(f(cPoolBusyNs), float64(o.wall.Nanoseconds()*worldPEs*worldWorkers))
	m["runtime.am.envs_per_batch"] = ratio(f(cEnvs), batches)
	m["runtime.am.flush_timer_share"] = ratio(f(cFlushTimer), batches)
	m["runtime.am.flush_size_share"] = ratio(f(cFlushSize)+f(cFlushOps), batches)
	m["runtime.am.flush_drain_share"] = ratio(f(cFlushDrain), batches)
	m["runtime.wire.retx_share"] = ratio(f(cRetx), batches+f(cRetx))
	m["runtime.wire.acks_per_batch"] = ratio(f(cAcksSent), batches)
	m["runtime.wire.parked_per_kbatch"] = 1e3 * ratio(f(cParked), batches)
	m["runtime.wire.dup_dropped"] = f(cDupDropped)
	m["runtime.wire.ooo_held"] = f(cOOOHeld)
	m["runtime.wire.timeouts"] = f(cTimeouts)
	m["array.ops_per_agg_batch"] = ratio(f(cAggOps), f(cAggBatches))
	m["array.agg_flush_size_share"] = ratio(f(cAggFlushSize), f(cAggBatches))
	m["array.agg_flush_ops_share"] = ratio(f(cAggFlushOps), f(cAggBatches))
	m["array.agg_flush_drain_share"] = ratio(f(cAggFlushDrain), f(cAggBatches))

	// Zero on the closed-loop workloads, which have no generator to run late
	// and print their whole tail as lat_p99_us.
	m["kv.gen_lag_p99_us"] = us(percentile(o.genLag.sorted(), 99))
	m["kv.lat_p999_us"] = 0
	if len(o.genLag.chunks) > 0 {
		r.Notes["gen_lag_hi_p99_us"] = us(percentile(o.genLagHi.sorted(), 99))
		v, pct := gatedPercentile(o.lat.sorted(), 99.9)
		m["kv.lat_p999_us"] = us(v)
		r.Notes["lat_p999_tail_pct"] = pct
	}
}

package runtime

import (
	"sync/atomic"
	"time"

	"repro/internal/diag"
	"repro/internal/telemetry"
	"repro/internal/telemetry/recorder"
)

// watchdog is the runtime's stall sampler: a single background goroutine
// per world that inspects every PE each tick and flags
//
//   - futures outstanding far beyond the recorded round-trip p99
//     (WatchdogStallFactor × p99, floored at 8× the sampling interval so
//     a cold digest cannot produce false positives),
//   - WaitAll windows where the completion counter has stopped moving,
//   - collectives where some team member never arrived,
//   - scheduler starvation (parked workers alongside a non-empty
//     injector and no task executed, sustained across consecutive
//     ticks), and
//   - a monotonically growing unacked reliable-wire backlog (the
//     signature of a partitioned or severely degraded link).
//
// Each flag bumps a per-PE health counter (World.Health), emits a
// health.* telemetry event when a session is live, and reports through
// the diag logger (rate-limited: the first few occurrences per PE and
// kind, then every 16th). The backlog sweep doubles as the sampler that
// feeds the flight recorder's unacked gauge.
type watchdog struct {
	env      *worldEnv
	interval time.Duration
	factor   int

	counts [][telemetry.NumHealthKinds]atomic.Uint64
	warned [][telemetry.NumHealthKinds]uint64 // diag rate limiting; sampler-only

	lastCompleted []uint64 // WaitAll progress detection
	lastExecuted  []uint64 // scheduler progress, for starvation
	starvedTicks  []int
	lastBacklog   []int
	backlogGrow   []int
}

func newWatchdog(env *worldEnv, interval time.Duration, factor int) *watchdog {
	n := env.cfg.PEs
	return &watchdog{
		env:           env,
		interval:      interval,
		factor:        factor,
		counts:        make([][telemetry.NumHealthKinds]atomic.Uint64, n),
		warned:        make([][telemetry.NumHealthKinds]uint64, n),
		lastCompleted: make([]uint64, n),
		lastExecuted:  make([]uint64, n),
		starvedTicks:  make([]int, n),
		lastBacklog:   make([]int, n),
		backlogGrow:   make([]int, n),
	}
}

func (d *watchdog) run() {
	defer d.env.flushWG.Done()
	ticker := time.NewTicker(d.interval)
	defer ticker.Stop()
	for {
		select {
		case <-d.env.stopFlush:
			return
		case <-ticker.C:
			d.sample()
		}
	}
}

// stallThreshold is the age beyond which an outstanding op counts as
// stalled on pe: factor × recorded round-trip p99, floored at 8× the
// sampling interval (which also covers the cold-start case where the
// digest is empty and p99 is zero). With the RTT-adaptive wire layer the
// threshold also rides factor × the largest live adaptive RTO on this
// PE's streams: a link whose retransmission timeout has legitimately
// grown (congestion, loss) must not be flagged at the old round-trip
// scale, while a link whose RTO collapsed to microseconds still keeps
// the interval floor.
func (d *watchdog) stallThreshold(pe int) int64 {
	floor := 8 * d.interval.Nanoseconds()
	thr := int64(d.factor) * int64(d.env.rec.PE(pe).Hist(recorder.HistRoundTrip).Quantile(0.99))
	if rel := d.env.rel; rel != nil {
		if rto := int64(d.factor) * rel.maxRTO(pe); rto > thr {
			thr = rto
		}
	}
	if thr < floor {
		thr = floor
	}
	return thr
}

func (d *watchdog) sample() {
	now := telemetry.MonoNow()
	for pe, w := range d.env.worlds {
		thr := d.stallThreshold(pe)

		// Oldest outstanding return-style AM.
		if req, dst, age := w.oldestOutstanding(now); req != 0 && age > thr {
			d.flag(pe, telemetry.HealthFutureStall, age,
				"PE%d: request %d to PE%d outstanding %v (threshold %v)",
				pe, req, dst, time.Duration(age), time.Duration(thr))
		}

		// WaitAll stall: blocked past the threshold with no completion
		// progress since the previous tick and work still outstanding.
		comp := w.completed.Load()
		if since := w.waitingSince.Load(); since != 0 && now-since > thr &&
			comp == d.lastCompleted[pe] && w.issued.Load() > comp {
			d.flag(pe, telemetry.HealthWaitStall, now-since,
				"PE%d: WaitAll blocked %v with no progress (%d/%d AMs complete)",
				pe, time.Duration(now-since), comp, w.issued.Load())
		}
		d.lastCompleted[pe] = comp

		// Scheduler starvation, sustained across two consecutive ticks.
		exec, _, _, _ := w.pool.Stats()
		d.starvedTicks[pe] = starvationTicks(d.starvedTicks[pe], w.pool.Starved(), exec, d.lastExecuted[pe])
		d.lastExecuted[pe] = exec
		if d.starvedTicks[pe] >= 2 {
			d.flag(pe, telemetry.HealthStarvation, int64(d.starvedTicks[pe]),
				"PE%d: workers parked with runnable tasks for %d ticks",
				pe, d.starvedTicks[pe])
		}

		// Unacked wire backlog: sampled into the recorder every tick.
		// Flagged when non-decreasing for three ticks AND the oldest
		// frame has aged past the stall threshold — a healthy loaded
		// link keeps frames in flight constantly, but acks them at
		// round-trip scale, so count alone would false-positive.
		if rel := d.env.rel; rel != nil {
			n, oldest := rel.unackedFrames(pe)
			d.env.rec.PE(pe).SetUnacked(int64(n))
			if n > 0 && n >= d.lastBacklog[pe] && oldest.Nanoseconds() > thr {
				d.backlogGrow[pe]++
				if d.backlogGrow[pe] >= 3 {
					d.flag(pe, telemetry.HealthBacklogGrowth, int64(n),
						"PE%d: %d unacked wire frames, oldest %v, not shrinking for %d ticks",
						pe, n, oldest, d.backlogGrow[pe])
				}
			} else {
				d.backlogGrow[pe] = 0
			}
			d.lastBacklog[pe] = n
		}
	}
	d.sampleCollectives(now)
}

// starvationTicks advances a PE's count of consecutive starved ticks. A
// tick is starved when the pool reports parked workers beside queued
// tasks and executed no task since the previous tick: a worker that was
// woken but is not running yet also reads as parked, so on a host with
// few CPUs Starved alone is true through busy epochs whose tasks still
// run.
func starvationTicks(prev int, starved bool, executed, lastExecuted uint64) int {
	if starved && executed == lastExecuted {
		return prev + 1
	}
	return 0
}

// sampleCollectives flags collective rendezvous entries whose first
// arriver has been waiting past the PE-0 stall threshold — some team
// member never issued the matching call. Attribution to a single PE is
// impossible (the laggard is precisely the PE with no record), so the
// flag lands on PE 0's counters with the collective key in the message.
func (d *watchdog) sampleCollectives(now int64) {
	thr := d.stallThreshold(0)
	type stale struct {
		key string
		age int64
	}
	var stales []stale
	d.env.collMu.Lock()
	for key, e := range d.env.coll {
		if e.created != 0 && now-e.created > thr {
			stales = append(stales, stale{key, now - e.created})
		}
	}
	d.env.collMu.Unlock()
	for _, s := range stales {
		d.flag(0, telemetry.HealthCollectiveStall, s.age,
			"collective %q waiting %v for stragglers", s.key, time.Duration(s.age))
	}
}

// flag records one health observation: counter, telemetry event, and a
// rate-limited diag warning.
func (d *watchdog) flag(pe int, kind telemetry.HealthKind, val int64, format string, args ...any) {
	d.counts[pe][kind].Add(1)
	if telemetry.Enabled() {
		if c := telemetry.C(); c != nil {
			c.Emit(telemetry.Event{
				TS: c.Now(), Kind: telemetry.EvHealth, Sub: uint8(kind),
				PE: int32(pe), Worker: telemetry.TidRuntime, Arg1: val,
			})
		}
	}
	n := d.warned[pe][kind]
	d.warned[pe][kind]++
	if n < 8 || n%16 == 0 {
		diag.Warnf("health", "%s: "+format, append([]any{kind}, args...)...)
	}
}

// HealthCounts is a PE's per-kind tally of watchdog health flags,
// indexed by telemetry.HealthKind.
type HealthCounts [telemetry.NumHealthKinds]uint64

// Total sums all health flags.
func (h HealthCounts) Total() uint64 {
	var t uint64
	for _, n := range h {
		t += n
	}
	return t
}

// Health snapshots this PE's watchdog health counters (all zero when
// the watchdog is disabled or nothing was ever flagged).
func (w *World) Health() HealthCounts {
	var h HealthCounts
	if d := w.env.dog; d != nil {
		for k := range h {
			h[k] = d.counts[w.pe][k].Load()
		}
	}
	return h
}

// oldestOutstanding reports the oldest outstanding return-style request
// this PE is waiting on (req 0 when none): its ID, destination, and age
// relative to now (a MonoNow stamp).
func (w *World) oldestOutstanding(now int64) (req uint64, dst int32, age int64) {
	w.retMu.Lock()
	for r, e := range w.returns {
		if e.issueNs == 0 {
			continue
		}
		if a := now - e.issueNs; a > age {
			req, dst, age = r, e.dst, a
		}
	}
	w.retMu.Unlock()
	return req, dst, age
}

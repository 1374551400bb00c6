// Package scheduler implements the Thread Pool layer of the stack: each PE
// owns a pool of worker goroutines executing asynchronous tasks — AM
// handlers, communication tasks produced by the Lamellae, and user-
// submitted futures — mirroring the work-stealing Rust executor the paper
// describes. Awaiting a future from inside the pool *helps* execute other
// tasks instead of blocking a worker, so `block_on` only blocks the caller
// while the pool keeps making progress, exactly the semantics Listing 1
// relies on.
package scheduler

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diag"
	"repro/internal/telemetry"
)

// Task is a unit of asynchronous work.
type Task func()

// PanicHandler receives recovered panics from tasks.
type PanicHandler func(recovered any)

// taskEntry pairs a queued task with its telemetry spawn timestamp
// (collector nanoseconds; 0 when telemetry was disabled at submit time).
// Keeping the timestamp in the queue slot itself costs one word per entry
// and no allocation on either path.
type taskEntry struct {
	fn      Task
	spawnNs int64
}

// Pool is a lock-free work-stealing executor (ISSUE 3), replacing the
// seed's single pool-wide mutex + condvar:
//
//   - Each worker owns a fixed-capacity Chase-Lev deque (deque.go):
//     LIFO owner pops for locality, lock-free FIFO steals by thieves.
//   - Submissions land in a mutex-sharded, chunk-linked FIFO injector
//     (injector.go); workers refill their deque with a batch of injector
//     tasks under a single shard lock, and overflow spills back.
//   - Victim selection uses a per-worker xorshift64 PRNG — no global
//     rand lock — and steals transfer up to half the victim's tasks per
//     encounter to amortize search and parking traffic.
//   - Idle workers sleep on an eventcount parking lot (park.go) with a
//     prepare/recheck/commit-wait protocol: no lost wakeups, and Submit
//     stays lock-free when nobody is parked.
//
// Scheduling order per worker: own deque (LIFO), then injector (FIFO per
// shard), then steal the oldest tasks from a random victim — with a
// periodic injector poll so local churn cannot starve global
// submissions.
type Pool struct {
	workers int
	deques  []*deque
	inj     *injector
	scratch [][]taskEntry // per-worker refill buffers

	parker    *eventCount
	searching atomic.Int32 // workers in the refill/steal scan
	closed    atomic.Bool

	notify  chan struct{} // nudges helpers parked in Await/Quiesce
	nudgers atomic.Int32  // helpers currently blocked on notify

	wg         sync.WaitGroup
	helpCursor atomic.Uint64 // rotates TryRunOne's injector start shard

	outstanding atomic.Int64 // submitted but not finished
	executed    atomic.Uint64
	stolen      atomic.Uint64
	parks       atomic.Uint64
	busyNs      atomic.Int64 // accumulated task execution time

	tracePE atomic.Int32 // PE label for telemetry events

	// qwaitHist, when set, receives queue-wait samples even without a
	// telemetry session (the always-on flight recorder). qwaitTick
	// drives the 1-in-64 sampling of spawn timestamps on that path.
	qwaitHist atomic.Pointer[telemetry.Histogram]
	qwaitTick atomic.Uint64

	onPanic atomic.Pointer[PanicHandler]

	spill func(taskEntry) // overflow route back to the injector
}

// refillBatch bounds how many injector tasks one worker moves into its
// deque per shard-lock acquisition.
const (
	refillBatch = 32
	// injectorPollMask: every 64th dispatch polls the injector before the
	// local deque so the FIFO queue cannot be starved by deque churn.
	injectorPollMask = 63
)

// stealBatchMax bounds tasks transferred per steal encounter ("steal
// half, capped"). The Task Bench sweeps (bench_results.txt §TASKBENCH)
// found no stable optimum across dependency patterns and granularities,
// so it is a constant.
const stealBatchMax = 32

// NewPool starts a pool with the given number of workers (minimum 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		workers: workers,
		deques:  make([]*deque, workers),
		scratch: make([][]taskEntry, workers),
		inj:     newInjector(workers),
		parker:  newEventCount(),
		notify:  make(chan struct{}, 1),
	}
	p.spill = func(e taskEntry) { p.inj.push(e) }
	// allocate every deque before any worker starts: workers steal from
	// all peers, so p.deques must be fully populated first
	for w := 0; w < workers; w++ {
		p.deques[w] = new(deque)
		p.scratch[w] = make([]taskEntry, refillBatch)
	}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go p.worker(w)
	}
	return p
}

// Workers reports the worker count.
func (p *Pool) Workers() int { return p.workers }

// SetTelemetryPE labels this pool's telemetry events with the owning
// PE's rank (pools default to PE 0).
func (p *Pool) SetTelemetryPE(pe int) { p.tracePE.Store(int32(pe)) }

// SetQueueWaitRecorder routes queue-wait latencies into h even when no
// telemetry session is live. To keep the disabled hot path at zero
// extra clock reads, only 1 in 64 submissions is stamped on that path;
// a live session stamps (and records) every task as before.
func (p *Pool) SetQueueWaitRecorder(h *telemetry.Histogram) {
	p.qwaitHist.Store(h)
}

// Starved reports whether workers are parked while the injector holds
// runnable tasks — the scheduler-starvation signal the stall watchdog
// samples. A transiently true value is normal (parking races with
// submission); the watchdog requires it across consecutive ticks.
func (p *Pool) Starved() bool {
	return p.parker.waiters() > 0 && p.inj.nonEmpty()
}

// SetPanicHandler installs a handler for panics escaping tasks. The
// default prints and continues, mirroring "shut down a failing goroutine
// without killing the others".
func (p *Pool) SetPanicHandler(h PanicHandler) {
	if h == nil {
		p.onPanic.Store(nil)
		return
	}
	p.onPanic.Store(&h)
}

// newEntry wraps a task for queuing, stamping it when telemetry is on.
func (p *Pool) newEntry(t Task) taskEntry {
	e := taskEntry{fn: t}
	if telemetry.Enabled() {
		if c := telemetry.C(); c != nil {
			e.spawnNs = c.Now()
			c.Emit(telemetry.Event{
				TS: e.spawnNs, Kind: telemetry.EvTaskSpawn,
				PE: p.tracePE.Load(), Worker: telemetry.TidRuntime,
			})
			return e
		}
	}
	// No session: stamp 1 in 64 tasks so the always-on recorder keeps a
	// live queue-wait digest at ~1/64th of the clock-read cost.
	if p.qwaitHist.Load() != nil && p.qwaitTick.Add(1)&63 == 0 {
		e.spawnNs = telemetry.MonoNow()
	}
	return e
}

// Submit enqueues a task for asynchronous execution.
func (p *Pool) Submit(t Task) {
	if t == nil {
		panic("scheduler: nil task")
	}
	if p.closed.Load() {
		panic("scheduler: submit on closed pool")
	}
	p.outstanding.Add(1)
	p.inj.push(p.newEntry(t))
	p.wake()
}

// SubmitGlobal enqueues to the FIFO injector (fairness over locality);
// used by the Lamellae progress engine for inbound communication tasks.
// Order is guaranteed FIFO per injector shard (a single producer's
// submissions that route to the same shard run in submission order).
func (p *Pool) SubmitGlobal(t Task) {
	p.Submit(t)
}

// SubmitBatch enqueues a group of tasks on ONE injector shard under a
// single lock acquisition, preserving their relative FIFO order; the
// progress engine uses it to turn a delivered AM batch into tasks with
// one lock round trip instead of one per AM.
func (p *Pool) SubmitBatch(ts []Task) {
	if len(ts) == 0 {
		return
	}
	if p.closed.Load() {
		panic("scheduler: submit on closed pool")
	}
	// The entry slice is transient: pushBatch copies entries into the
	// shard's chunks before returning, so a pooled scratch slice makes
	// the delivery path allocation-free at steady state.
	esp := entrySlicePool.Get().(*[]taskEntry)
	es := (*esp)[:0]
	for _, t := range ts {
		if t == nil {
			panic("scheduler: nil task")
		}
		es = append(es, p.newEntry(t))
	}
	p.outstanding.Add(int64(len(ts)))
	p.inj.pushBatch(es)
	for i := range es {
		es[i] = taskEntry{} // drop task references before pooling
	}
	*esp = es[:0]
	entrySlicePool.Put(esp)
	p.wake()
}

// entrySlicePool recycles SubmitBatch's scratch entry slices.
var entrySlicePool = sync.Pool{New: func() any {
	s := make([]taskEntry, 0, 64)
	return &s
}}

// wake makes new work visible to sleepers: a non-blocking nudge for
// helpers parked in Await/Quiesce, and — only when no worker is already
// scanning for work and someone is parked — one eventcount notify. A
// scanning worker is guaranteed to either find the task or re-detect it
// in the parking recheck, so skipping the notify cannot strand work.
func (p *Pool) wake() {
	// Helpers re-poll on a 100µs timeout, so a nudge skipped because the
	// helper had not yet registered costs at most that delay — the channel
	// send (≈25ns) is only worth paying when someone is provably blocked.
	if p.nudgers.Load() != 0 {
		select {
		case p.notify <- struct{}{}:
		default:
		}
	}
	if p.searching.Load() == 0 && p.parker.waiters() > 0 {
		p.parker.notifyOne()
	}
}

func (p *Pool) worker(w int) {
	defer p.wg.Done()
	d := p.deques[w]
	// splitmix-style seed keeps per-worker streams distinct and nonzero
	rng := (uint64(w) + 1) * 0x9E3779B97F4A7C15
	var tick uint
	for {
		e, ok := p.findTask(w, d, &rng, &tick)
		if !ok {
			return // closed and drained
		}
		// Dispatch run: execute the found task plus everything already in
		// the local deque under ONE busy-clock pair. Per-task clock reads
		// were ~20% of dispatch cost; the gap between back-to-back pops is
		// a few ns, so attributing it to busy time is a fair trade. The
		// loop is bounded — only this worker refills its deque, so the
		// deque can only shrink while we drain it.
		start := time.Now()
		p.runTask(e, w)
		for {
			e, ok = d.pop()
			if !ok {
				break
			}
			p.runTask(e, w)
		}
		p.busyNs.Add(time.Since(start).Nanoseconds())
	}
}

// findTask locates the next task for worker w, parking when the pool is
// idle. Reports false only when the pool is closed and drained.
func (p *Pool) findTask(w int, d *deque, rng *uint64, tick *uint) (taskEntry, bool) {
	for {
		*tick++
		if *tick&injectorPollMask == 0 {
			if e, ok := p.refill(w, d); ok {
				return e, true
			}
		}
		if e, ok := d.pop(); ok {
			return e, true
		}
		// Local deque empty: scan the injector and other deques. The
		// searching counter gates producer-side notifies (see wake).
		p.searching.Add(1)
		if e, ok := p.searchOnce(w, d, rng); ok {
			p.exitSearching()
			return e, true
		}
		// Nothing anywhere: announce intent to sleep, then recheck —
		// the eventcount protocol that makes the sleep race-free.
		ticket := p.parker.prepare()
		p.searching.Add(-1)
		if p.closed.Load() {
			p.parker.cancel()
			// final drain sweep so Close leaves nothing behind
			if e, ok := p.searchOnce(w, d, rng); ok {
				return e, true
			}
			return taskEntry{}, false
		}
		if p.hasWork() {
			p.parker.cancel()
			continue
		}
		p.parks.Add(1)
		var t0 int64
		var c *telemetry.Collector
		if telemetry.Enabled() {
			if c = telemetry.C(); c != nil {
				t0 = c.Now()
			}
		}
		p.parker.commitWait(ticket)
		if c != nil {
			c.Emit(telemetry.Event{
				TS: t0, Dur: c.Now() - t0, Kind: telemetry.EvTaskPark,
				PE: p.tracePE.Load(), Worker: int32(w),
			})
		}
	}
}

// searchOnce makes one full pass over the global sources: an injector
// refill, then a batched steal from a random victim.
func (p *Pool) searchOnce(w int, d *deque, rng *uint64) (taskEntry, bool) {
	if e, ok := p.refill(w, d); ok {
		return e, true
	}
	return p.stealFrom(w, d, rng)
}

// exitSearching leaves the scanning state; the last scanner to leave
// re-arms a sleeper if submissions raced in during its scan (those
// producers saw searching > 0 and skipped their notify).
func (p *Pool) exitSearching() {
	if p.searching.Add(-1) == 0 && p.inj.nonEmpty() {
		p.parker.notifyOne()
	}
}

// refill moves a batch of injector tasks into w's deque under one shard
// lock, returning the first to run now. The rest are pushed in reverse
// so the owner's LIFO pops replay them in FIFO order.
func (p *Pool) refill(w int, d *deque) (taskEntry, bool) {
	buf := p.scratch[w]
	max := int(d.free()) + 1
	if max > len(buf) {
		max = len(buf)
	}
	if max < 1 {
		max = 1
	}
	n := p.inj.popBatch(buf[:max], w)
	if n == 0 {
		return taskEntry{}, false
	}
	for i := n - 1; i >= 1; i-- {
		if !d.push(buf[i]) {
			p.spill(buf[i]) // cannot happen given max; defensive
		}
	}
	e := buf[0]
	for i := 0; i < n; i++ {
		buf[i] = taskEntry{} // drop task references from the scratch area
	}
	return e, true
}

// stealFrom scans victims from a PRNG offset, transferring a batch from
// the first non-empty deque (half the victim's tasks, capped). The
// telemetry emission happens here, after the lock-free transfer — never
// inside a queue critical section.
func (p *Pool) stealFrom(w int, d *deque, rng *uint64) (taskEntry, bool) {
	if p.workers == 1 {
		return taskEntry{}, false
	}
	off := int(xorshiftNext(rng) % uint64(p.workers))
	for i := 0; i < p.workers; i++ {
		v := (off + i) % p.workers
		if v == w {
			continue
		}
		e, moved, ok := d.stealInto(p.deques[v], stealBatchMax, p.spill)
		if !ok {
			continue
		}
		p.stolen.Add(1 + uint64(moved))
		if telemetry.Enabled() {
			if c := telemetry.C(); c != nil {
				c.Emit(telemetry.Event{
					TS: c.Now(), Kind: telemetry.EvTaskSteal,
					PE: p.tracePE.Load(), Worker: int32(w),
					Arg1: int64(v), Arg2: int64(1 + moved),
				})
			}
		}
		return e, true
	}
	return taskEntry{}, false
}

// hasWork reports whether any queue holds a task (the parking recheck).
func (p *Pool) hasWork() bool {
	if p.inj.nonEmpty() {
		return true
	}
	for _, d := range p.deques {
		if d.size() > 0 {
			return true
		}
	}
	return false
}

// xorshiftNext advances a per-worker xorshift64 PRNG — victim selection
// without the process-wide math/rand lock the seed paid inside its
// critical section.
func xorshiftNext(s *uint64) uint64 {
	x := *s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = x
	return x
}

// run executes a task with timing and panic containment — the helper
// path (Await/TryRunOne callers, worker index -1). Workers use runTask
// directly and batch the busy clock across a dispatch run.
func (p *Pool) run(t taskEntry, worker int) {
	start := time.Now()
	p.runTask(t, worker)
	p.busyNs.Add(time.Since(start).Nanoseconds())
}

// runTask executes one task with panic containment, telemetry, and
// executed/outstanding accounting; busy-time is the caller's concern.
func (p *Pool) runTask(t taskEntry, worker int) {
	var c *telemetry.Collector
	var t0 int64
	if telemetry.Enabled() {
		if c = telemetry.C(); c != nil {
			t0 = c.Now()
		}
	}
	if t.spawnNs != 0 {
		now := t0
		if now == 0 {
			now = telemetry.MonoNow()
		}
		wait := now - t.spawnNs
		if c != nil {
			c.Hist(int(p.tracePE.Load()), telemetry.HistQueueWait).Record(wait)
		}
		if h := p.qwaitHist.Load(); h != nil {
			h.Record(wait)
		}
	}
	defer func() {
		p.executed.Add(1)
		p.outstanding.Add(-1)
		if c != nil {
			tid := int32(worker)
			if worker < 0 {
				tid = telemetry.TidApp
			}
			c.Emit(telemetry.Event{
				TS: t0, Dur: c.Now() - t0, Kind: telemetry.EvTaskRun,
				PE: p.tracePE.Load(), Worker: tid,
			})
		}
		if r := recover(); r != nil {
			if h := p.onPanic.Load(); h != nil {
				(*h)(r)
			} else {
				diag.Errorf("scheduler", "task panicked: %v", r)
			}
		}
	}()
	t.fn()
}

// TryRunOne executes one pending task if any exists; it is the helping
// primitive used by Await and by the runtime's progress loops. Reports
// whether a task ran. Helpers behave like an extra worker with no own
// deque: injector first (FIFO), then steal the oldest task from any
// worker.
func (p *Pool) TryRunOne() bool {
	e, ok := p.inj.popOne(int(p.helpCursor.Add(1)))
	if !ok {
		for v := 0; v < p.workers; v++ {
			if ev, okv := p.deques[v].steal(); okv {
				e, ok = ev, true
				break
			}
		}
	}
	if !ok {
		return false
	}
	p.run(e, -1)
	return true
}

// Pending reports submitted-but-unfinished tasks.
func (p *Pool) Pending() int64 { return p.outstanding.Load() }

// Stats reports lifetime counters: tasks executed, tasks obtained by
// stealing (including batch transfers), worker park episodes, and
// accumulated task execution time.
func (p *Pool) Stats() (executed, stolen, parks uint64, busy time.Duration) {
	return p.executed.Load(), p.stolen.Load(), p.parks.Load(), time.Duration(p.busyNs.Load())
}

// BusyNs returns accumulated task execution nanoseconds (the per-PE CPU
// time used to derive simulated elapsed time in benchmarks).
func (p *Pool) BusyNs() int64 { return p.busyNs.Load() }

// Quiesce blocks until no tasks are pending, helping execute them.
// New submissions during Quiesce extend the wait.
func (p *Pool) Quiesce() {
	for p.outstanding.Load() > 0 {
		if !p.TryRunOne() {
			p.waitNudge()
		}
	}
}

// waitNudge parks briefly until new work may be available.
func (p *Pool) waitNudge() {
	p.nudgers.Add(1)
	select {
	case <-p.notify:
	case <-time.After(100 * time.Microsecond):
	}
	p.nudgers.Add(-1)
}

// awaitNudge is waitNudge with an extra resolution channel; Await's
// blocking arm registers as a nudger the same way.
func (p *Pool) awaitNudge(done <-chan struct{}) {
	p.nudgers.Add(1)
	select {
	case <-done:
	case <-p.notify:
	case <-time.After(100 * time.Microsecond):
	}
	p.nudgers.Add(-1)
}

// Close drains remaining tasks and stops all workers: each worker keeps
// executing until every queue is empty, makes one final sweep after
// observing the closed flag, then exits.
func (p *Pool) Close() {
	p.closed.Store(true)
	p.parker.notifyAll()
	select {
	case p.notify <- struct{}{}:
	default:
	}
	p.wg.Wait()
	// run anything left behind (a task racing with close could land in
	// the injector after the final worker sweeps)
	for p.TryRunOne() {
	}
}

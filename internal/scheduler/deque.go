package scheduler

import "sync/atomic"

// deque is a fixed-capacity Chase-Lev work-stealing deque (Chase & Lev,
// "Dynamic Circular Work-Stealing Deque", SPAA 2005) over a power-of-two
// ring buffer, the per-worker queue shape used by Tokio, Rayon, and
// crossbeam-deque.
//
// Roles:
//   - The OWNER (one worker goroutine) pushes and pops at the bottom:
//     LIFO order, no CAS except for the final element.
//   - THIEVES (any goroutine) steal at the top: FIFO order, one CAS per
//     claimed task.
//
// Indices grow monotonically; a slot is index&dequeMask. The deque holds
// bottom-top tasks. push reports false when the ring is full — the caller
// spills to the injector instead of blocking or reallocating.
//
// Memory ordering: Go's sync/atomic operations are sequentially
// consistent, which is strictly stronger than the acquire/release +
// seq-cst-fence mix the original algorithm needs, so the classic
// correctness argument carries over directly:
//
//   - A thief reads slot contents *before* its CAS on top. The read may
//     race with the owner overwriting that slot after a wraparound, but
//     the owner can only reuse slot t&mask once top has advanced past t,
//     and then the thief's CAS(t, t+1) is guaranteed to fail and discard
//     the torn read. Slot fields are themselves atomic so the race is
//     benign to the race detector as well as to the algorithm.
//   - The owner's pop of the FINAL element (top == bottom-1) must
//     arbitrate against thieves via the same CAS on top; non-final pops
//     need no CAS because thieves can never reach them (top < bottom-1
//     at the owner's read, and top only moves through CAS winners).
//   - Only the owner writes slots. A finished task must not stay
//     reachable from its slot (it pins everything the closure captures
//     until the ring wraps), so pop overwrites the slot it claimed with
//     noopTask, and push and sweep clear the slots thieves claimed,
//     [swept, top). A thief never clears its slot after the CAS: by then
//     the owner may already have reused it after a wraparound.
//
// Why stealing is one CAS per task rather than one CAS claiming half the
// range: a multi-slot claim CAS(top: t → t+n) is unsound against the
// owner's CAS-free pop path. The thief computes n from a stale bottom;
// meanwhile the owner may pop elements inside [t, t+n) without any CAS
// (they were not final at its read), so both would run the same task.
// crossbeam-deque's LIFO flavor makes the same call. Batch stealing
// (stealInto) therefore amortizes victim selection, PRNG, and parking
// traffic — not the CAS itself.
type deque struct {
	top    atomic.Int64 // next index to steal (thieves CAS)
	_      [56]byte     // keep top and bottom on separate cache lines
	bottom atomic.Int64 // next index to push (owner only)
	swept  int64        // slots below this index are cleared (owner only)
	_      [48]byte
	slots  [dequeCap]dqSlot
}

// noopTask replaces a claimed task in its slot so the slot stops
// referencing the task's closure.
var noopTask Task = func() {}

// sweepMax bounds the slots one sweep clears, keeping push O(1).
const sweepMax = 16

// dequeCap is the per-worker ring capacity; must be a power of two.
// 256 matches Tokio's local run queue.
const (
	dequeCap  = 256
	dequeMask = dequeCap - 1
)

// dqSlot holds one queued task. The two fields are separately atomic;
// a thief's torn read across them is discarded by its failed CAS (see
// the type comment).
type dqSlot struct {
	fn atomic.Value // always stores a Task (func values box without allocating)
	ts atomic.Int64 // telemetry spawn timestamp (0 = telemetry off at submit)
}

// size reports bottom-top; exact for the owner, a snapshot for others.
func (d *deque) size() int64 {
	return d.bottom.Load() - d.top.Load()
}

// free reports remaining capacity from the owner's perspective.
func (d *deque) free() int64 {
	return dequeCap - d.size()
}

// push appends e at the bottom (owner only). Reports false when full;
// the caller must then spill e elsewhere (the injector).
func (d *deque) push(e taskEntry) bool {
	b := d.bottom.Load()
	t := d.top.Load()
	if b-t >= dequeCap {
		return false
	}
	d.sweepTo(t, b)
	s := &d.slots[b&dequeMask]
	s.fn.Store(e.fn)
	s.ts.Store(e.spawnNs)
	d.bottom.Store(b + 1) // publish: thieves may now claim index b
	return true
}

// pop removes the newest task (owner only, LIFO).
func (d *deque) pop() (taskEntry, bool) {
	b := d.bottom.Load() - 1
	d.bottom.Store(b) // reserve index b against incoming thieves
	t := d.top.Load()
	if t > b {
		// empty; restore
		d.bottom.Store(b + 1)
		return taskEntry{}, false
	}
	s := &d.slots[b&dequeMask]
	e := taskEntry{fn: s.fn.Load().(Task), spawnNs: s.ts.Load()}
	if t == b {
		// final element: arbitrate with thieves
		if !d.top.CompareAndSwap(t, t+1) {
			// a thief won the last task; sweep clears its slot
			d.bottom.Store(b + 1)
			return taskEntry{}, false
		}
		d.bottom.Store(b + 1)
	}
	s.fn.Store(noopTask)
	return e, true
}

// sweep clears slots of tasks thieves already claimed (owner only).
func (d *deque) sweep() {
	d.sweepTo(d.top.Load(), d.bottom.Load())
}

// sweepTo clears up to sweepMax claimed slots in [swept, t), given the
// owner's bottom b. Indices below b-dequeCap share their slot with a
// live or future task and are skipped; a thief still reading a swept
// slot fails its CAS, since top has passed that index.
func (d *deque) sweepTo(t, b int64) {
	lo := max(d.swept, b-dequeCap)
	hi := min(t, lo+sweepMax)
	for i := lo; i < hi; i++ {
		d.slots[i&dequeMask].fn.Store(noopTask)
	}
	d.swept = max(d.swept, hi)
}

// steal removes the oldest task (any goroutine, FIFO): read the slot,
// then CAS top to claim it; a failed CAS means the owner or another
// thief got there first.
func (d *deque) steal() (taskEntry, bool) {
	for {
		t := d.top.Load()
		b := d.bottom.Load()
		if t >= b {
			return taskEntry{}, false
		}
		s := &d.slots[t&dequeMask]
		fnv := s.fn.Load()
		ts := s.ts.Load()
		if d.top.CompareAndSwap(t, t+1) {
			return taskEntry{fn: fnv.(Task), spawnNs: ts}, true
		}
		// lost the race; reload indices and retry
	}
}

// stealInto steals a batch from victim v: the returned task to run now,
// plus up to half of v's remaining tasks (capped at max) transferred
// into d. In the pool, d is the caller's own empty deque (workers only
// steal when out of local work) so the transfers always fit; if d fills
// anyway, the overflow task goes to spill, which must not drop it.
// Reports the number of tasks transferred into d (not counting the
// returned one).
func (d *deque) stealInto(v *deque, max int, spill func(taskEntry)) (taskEntry, int, bool) {
	first, ok := v.steal()
	if !ok {
		return taskEntry{}, 0, false
	}
	n := int(v.size() / 2)
	if n > max {
		n = max
	}
	moved := 0
	for i := 0; i < n; i++ {
		e, ok := v.steal()
		if !ok {
			break
		}
		if !d.push(e) {
			spill(e)
			break
		}
		moved++
	}
	return first, moved, true
}

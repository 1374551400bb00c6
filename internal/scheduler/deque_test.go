package scheduler

import (
	"sync"
	"sync/atomic"
	"testing"
)

func mkEntry(id int64) taskEntry {
	return taskEntry{fn: func() {}, spawnNs: id}
}

// Wraparound: push/pop cycles well past dequeCap so every index maps onto
// a reused ring slot, in both LIFO (owner) and FIFO (thief) drain order.
func TestDequeWraparound(t *testing.T) {
	var d deque
	const rounds = 5
	for r := int64(0); r < rounds; r++ {
		// fill completely, drain LIFO from the owner side
		for i := int64(0); i < dequeCap; i++ {
			if !d.push(mkEntry(r*1000 + i)) {
				t.Fatalf("round %d: push %d refused below capacity", r, i)
			}
		}
		if d.push(mkEntry(-1)) {
			t.Fatalf("round %d: push succeeded on a full deque", r)
		}
		for i := int64(dequeCap - 1); i >= 0; i-- {
			e, ok := d.pop()
			if !ok || e.spawnNs != int64(r*1000)+i {
				t.Fatalf("round %d: pop = (%d,%v), want %d", r, e.spawnNs, ok, int64(r*1000)+i)
			}
		}
		if _, ok := d.pop(); ok {
			t.Fatalf("round %d: pop on empty deque succeeded", r)
		}
		// refill partially, drain FIFO from the thief side
		for i := int64(0); i < dequeCap/2; i++ {
			d.push(mkEntry(i))
		}
		for i := int64(0); i < dequeCap/2; i++ {
			e, ok := d.steal()
			if !ok || e.spawnNs != i {
				t.Fatalf("round %d: steal = (%d,%v), want %d", r, e.spawnNs, ok, i)
			}
		}
		if _, ok := d.steal(); ok {
			t.Fatalf("round %d: steal on empty deque succeeded", r)
		}
		if d.size() != 0 {
			t.Fatalf("round %d: size = %d after drain", r, d.size())
		}
	}
	// The logical index space must have advanced past the ring length
	// several times over, proving every physical slot was reused: top
	// gains 1 per LIFO drain (the final-element CAS) plus dequeCap/2 per
	// steal phase, so 5 rounds net (1+dequeCap/2)*5 = 645 > 2*dequeCap.
	if d.top.Load() <= 2*dequeCap {
		t.Fatalf("top = %d, expected net advance past %d (ring not wrapped)", d.top.Load(), 2*dequeCap)
	}
}

// Overflow spill: stealInto with a nearly-full destination routes the
// task that does not fit to the spill callback instead of dropping it.
func TestDequeStealIntoSpill(t *testing.T) {
	var victim, thief deque
	for i := int64(0); i < 100; i++ {
		victim.push(mkEntry(i))
	}
	// leave exactly 2 free slots in the thief's deque
	for i := int64(0); i < dequeCap-2; i++ {
		thief.push(mkEntry(1000 + i))
	}
	var spilled []int64
	first, moved, ok := thief.stealInto(&victim, stealBatchMax, func(e taskEntry) {
		spilled = append(spilled, e.spawnNs)
	})
	if !ok {
		t.Fatal("stealInto failed on a populated victim")
	}
	if first.spawnNs != 0 {
		t.Fatalf("first = %d, want the oldest task 0", first.spawnNs)
	}
	if moved != 2 {
		t.Fatalf("moved = %d, want 2 (free slots in destination)", moved)
	}
	if len(spilled) != 1 || spilled[0] != 3 {
		t.Fatalf("spilled = %v, want the one overflow task [3]", spilled)
	}
	// every stolen task is accounted for exactly once
	total := victim.size() + thief.size() + int64(len(spilled)) + 1 // +1 = first
	if total != 100+dequeCap-2 {
		t.Fatalf("task conservation broken: total = %d", total)
	}
}

// Batch transfer: stealing from a loaded victim into an empty deque takes
// the oldest task plus up to half the remainder (capped), FIFO order
// preserved through the destination's ring.
func TestDequeStealIntoBatch(t *testing.T) {
	var victim, thief deque
	for i := int64(0); i < 40; i++ {
		victim.push(mkEntry(i))
	}
	first, moved, ok := thief.stealInto(&victim, stealBatchMax, func(taskEntry) {
		t.Fatal("unexpected spill into an empty destination")
	})
	if !ok || first.spawnNs != 0 {
		t.Fatalf("first = (%d,%v), want (0,true)", first.spawnNs, ok)
	}
	// after taking the first, 39 remain; half = 19
	if moved != 19 {
		t.Fatalf("moved = %d, want 19 (half of remainder)", moved)
	}
	// the transfers land in submission order; owner LIFO pop sees newest
	for i := int64(first.spawnNs + int64(moved)); i >= 1; i-- {
		e, ok := thief.pop()
		if !ok || e.spawnNs != i {
			t.Fatalf("pop = (%d,%v), want %d", e.spawnNs, ok, i)
		}
	}
	if victim.size() != 20 {
		t.Fatalf("victim retains %d, want 20", victim.size())
	}
}

// Concurrent owner-vs-thieves torture: every task runs exactly once even
// with pops and steals racing over shared ring slots.
func TestDequeConcurrentStealNoDuplicates(t *testing.T) {
	var d deque
	const total = 20000
	ran := make([]atomic.Int32, total)
	var done sync.WaitGroup
	var thieves sync.WaitGroup
	var stop atomic.Bool
	for th := 0; th < 3; th++ {
		thieves.Add(1)
		go func() {
			defer thieves.Done()
			for !stop.Load() {
				if e, ok := d.steal(); ok {
					e.fn()
				}
			}
		}()
	}
	done.Add(total)
	for i := 0; i < total; i++ {
		i := i
		for !d.push(taskEntry{fn: func() { ran[i].Add(1); done.Done() }}) {
			// ring full: act as the owner and run one locally
			if e, ok := d.pop(); ok {
				e.fn()
			}
		}
		if i%3 == 0 {
			if e, ok := d.pop(); ok {
				e.fn()
			}
		}
	}
	for {
		e, ok := d.pop()
		if !ok {
			break
		}
		e.fn()
	}
	done.Wait()
	stop.Store(true)
	thieves.Wait()
	for i := range ran {
		if n := ran[i].Load(); n != 1 {
			t.Fatalf("task %d ran %d times", i, n)
		}
	}
}

// Per-shard FIFO: the injector's ordering contract is that tasks landing
// on the same shard pop in submission order, even across chunk boundaries
// and chunk recycling.
func TestInjectorPerShardFIFO(t *testing.T) {
	in := newInjector(4)
	const perShard = injChunkCap*3 + 7 // forces chunk linking and recycling
	// push round-robins; shard of push k is (k+1) % shards. Record the
	// expected per-shard sequences independently.
	shards := len(in.shards)
	want := make([][]int64, shards)
	for k := 0; k < perShard*shards; k++ {
		sh := (k + 1) % shards // cursor pre-increments
		want[sh] = append(want[sh], int64(k))
		in.push(mkEntry(int64(k)))
	}
	// drain each shard directly and compare order
	for sh := 0; sh < shards; sh++ {
		var got []int64
		buf := make([]taskEntry, 16)
		for {
			n := in.shards[sh].popBatch(buf)
			if n == 0 {
				break
			}
			for _, e := range buf[:n] {
				got = append(got, e.spawnNs)
			}
		}
		if len(got) != len(want[sh]) {
			t.Fatalf("shard %d: drained %d, want %d", sh, len(got), len(want[sh]))
		}
		for i := range got {
			if got[i] != want[sh][i] {
				t.Fatalf("shard %d: got[%d] = %d, want %d (FIFO violated)", sh, i, got[i], want[sh][i])
			}
		}
	}
	if in.nonEmpty() {
		t.Fatal("injector reports nonEmpty after full drain")
	}
}

// pushBatch keeps a whole batch on one shard in order — the AM-delivery
// contract the progress engine relies on.
func TestInjectorPushBatchSingleShardOrder(t *testing.T) {
	in := newInjector(8)
	es := make([]taskEntry, injChunkCap+10) // spans a chunk boundary
	for i := range es {
		es[i] = mkEntry(int64(i))
	}
	in.pushBatch(es)
	nonEmpty := 0
	for sh := range in.shards {
		if in.shards[sh].count.Load() > 0 {
			nonEmpty++
			buf := make([]taskEntry, len(es))
			n := in.shards[sh].popBatch(buf)
			if n != len(es) {
				t.Fatalf("shard %d holds %d of %d batch entries", sh, n, len(es))
			}
			for i := 0; i < n; i++ {
				if buf[i].spawnNs != int64(i) {
					t.Fatalf("batch order broken at %d: %d", i, buf[i].spawnNs)
				}
			}
		}
	}
	if nonEmpty != 1 {
		t.Fatalf("batch spread across %d shards, want 1", nonEmpty)
	}
}

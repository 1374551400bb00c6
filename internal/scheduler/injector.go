package scheduler

import (
	"sync"
	"sync/atomic"
)

// injector is the pool's global submission queue: a set of mutex-sharded
// FIFO queues of linked fixed-size chunks. It replaces the seed's single
// `[]taskEntry` slice guarded by the pool-wide lock, which paid an O(n)
// re-slice pattern on pop (`global = global[1:]` keeps the backing array
// alive and shifts on regrowth) and serialized SubmitGlobal from the
// Lamellae progress engine against every worker pop.
//
// Design:
//   - Producers round-robin across shards with one atomic counter, so a
//     submission burst spreads over independent locks. FIFO order is
//     guaranteed *per shard*: two tasks a single producer routes to the
//     same shard pop in submission order (ISSUE 3's per-shard FIFO
//     contract; total order across shards is not promised).
//   - Each shard is a linked list of chunks of injChunkCap entries:
//     push appends at the tail chunk, pop advances lo in the head chunk.
//     Both are O(1); drained chunks recycle through a one-chunk per-shard
//     free cache so steady-state traffic does not allocate.
//   - A per-shard atomic count lets consumers and the parking recheck
//     skip empty shards without touching the lock.
type injector struct {
	shards []injShard
	cursor atomic.Uint64 // round-robin push cursor
}

// injChunkCap is the number of entries per linked chunk. 64 entries keeps
// a chunk about one page and bounds the pop batch a worker can take under
// a single shard lock.
const injChunkCap = 64

// injShardCap caps sharding: the injector uses min(workers, cap) shards.
// Beyond ~8 independent locks the push-cursor atomic itself dominates;
// the Task Bench sweeps (bench_results.txt §TASKBENCH) found no better
// cap.
const injShardCap = 8

type injChunk struct {
	lo, hi int // valid entries are buf[lo:hi]
	next   *injChunk
	buf    [injChunkCap]taskEntry
}

type injShard struct {
	count  atomic.Int64 // entries queued (lock-free empty check)
	mu     sync.Mutex
	head   *injChunk // pop end (oldest)
	tail   *injChunk // push end (newest)
	spare  *injChunk // recycled chunks (linked via next), avoids alloc churn
	nspare int
	_      [16]byte // pad shards apart
}

// maxSpareChunks bounds the per-shard recycled-chunk list so a burst's
// spill buffers recycle instead of allocating, without pinning unbounded
// chunk memory afterwards.
const maxSpareChunks = 4

func newInjector(shards int) *injector {
	shards = min(max(shards, 1), injShardCap)
	return &injector{shards: make([]injShard, shards)}
}

// push enqueues e on the next round-robin shard.
func (in *injector) push(e taskEntry) {
	c := in.cursor.Add(1)
	in.shards[c%uint64(len(in.shards))].push(e)
}

// pushBatch enqueues all of es on ONE shard under one lock acquisition —
// the progress-engine path: a delivered AM batch becomes tasks with a
// single lock round trip, and per-shard FIFO keeps the batch in order.
func (in *injector) pushBatch(es []taskEntry) {
	if len(es) == 0 {
		return
	}
	c := in.cursor.Add(1)
	in.shards[c%uint64(len(in.shards))].pushBatch(es)
}

// nonEmpty reports whether any shard holds tasks (approximate: lock-free).
func (in *injector) nonEmpty() bool {
	for i := range in.shards {
		if in.shards[i].count.Load() > 0 {
			return true
		}
	}
	return false
}

// popBatch fills out with up to len(out) tasks, sweeping shards starting
// at shard `from` (callers rotate their start so shards drain evenly).
// Entries preserve per-shard FIFO order.
func (in *injector) popBatch(out []taskEntry, from int) int {
	n := 0
	for i := 0; i < len(in.shards) && n < len(out); i++ {
		s := &in.shards[(from+i)%len(in.shards)]
		n += s.popBatch(out[n:])
	}
	return n
}

// popOne removes a single task, sweeping shards from `from`.
func (in *injector) popOne(from int) (taskEntry, bool) {
	var one [1]taskEntry
	if in.popBatch(one[:], from) == 1 {
		return one[0], true
	}
	return taskEntry{}, false
}

func (s *injShard) push(e taskEntry) {
	s.mu.Lock()
	c := s.tail
	if c == nil || c.hi == injChunkCap {
		c = s.newTailLocked()
	}
	c.buf[c.hi] = e
	c.hi++
	s.count.Add(1)
	s.mu.Unlock()
}

func (s *injShard) pushBatch(es []taskEntry) {
	s.mu.Lock()
	c := s.tail
	for _, e := range es {
		if c == nil || c.hi == injChunkCap {
			c = s.newTailLocked()
		}
		c.buf[c.hi] = e
		c.hi++
	}
	s.count.Add(int64(len(es)))
	s.mu.Unlock()
}

// newTailLocked links a fresh (or recycled) chunk at the tail.
func (s *injShard) newTailLocked() *injChunk {
	nc := s.spare
	if nc != nil {
		s.spare = nc.next
		s.nspare--
		nc.lo, nc.hi, nc.next = 0, 0, nil
	} else {
		nc = new(injChunk)
	}
	if s.tail == nil {
		s.head, s.tail = nc, nc
	} else {
		s.tail.next = nc
		s.tail = nc
	}
	return nc
}

// popBatch moves up to len(out) oldest entries into out. O(1) per entry:
// the head chunk's lo advances; exhausted chunks unlink (or reset in
// place when they are also the tail) and recycle via the spare slot.
func (s *injShard) popBatch(out []taskEntry) int {
	if s.count.Load() == 0 {
		return 0
	}
	s.mu.Lock()
	n := 0
	for n < len(out) {
		c := s.head
		if c == nil {
			break
		}
		if c.lo == c.hi {
			if c.next == nil {
				// single empty chunk: reset in place for reuse
				c.lo, c.hi = 0, 0
				break
			}
			s.head = c.next
			if s.nspare < maxSpareChunks {
				c.next = s.spare
				s.spare = c
				s.nspare++
			} else {
				c.next = nil
			}
			continue
		}
		out[n] = c.buf[c.lo]
		c.buf[c.lo] = taskEntry{} // drop the task reference
		c.lo++
		n++
	}
	if n > 0 {
		s.count.Add(int64(-n))
	}
	s.mu.Unlock()
	return n
}

package kv

import (
	"fmt"

	"repro/internal/array"
	"repro/internal/runtime"
	"repro/internal/scheduler"
)

// Backend selects the array flavor the store shards over.
type Backend int

const (
	// BackendAtomic shards over an AtomicArray: per-element atomic ops on
	// the owner, no locks.
	BackendAtomic Backend = iota
	// BackendLocalLock shards over a LocalLockArray: owner-side ops run
	// under the owner's reader/writer lock.
	BackendLocalLock
)

func (b Backend) String() string {
	switch b {
	case BackendAtomic:
		return "atomic"
	case BackendLocalLock:
		return "locallock"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// Store is a distributed key-value service over a fixed keyspace
// [0, keys): key k lives on the PE that owns array index k under the
// block distribution, so routing is the array layer's existing index→PE
// placement and every operation flows through the aggregation layer as an
// element-op AM. Values are uint64.
//
// Construction is collective on the team; every PE must call New with the
// same arguments.
type Store struct {
	backend Backend
	keys    int
	team    *runtime.Team
	at      *array.AtomicArray[uint64]
	ll      *array.LocalLockArray[uint64]
}

// New collectively constructs a store with the given keyspace size.
func New(team *runtime.Team, keys int, backend Backend) *Store {
	s := &Store{backend: backend, keys: keys, team: team}
	switch backend {
	case BackendLocalLock:
		s.ll = array.NewLocalLockArray[uint64](team, keys, array.Block)
	default:
		s.at = array.NewAtomicArray[uint64](team, keys, array.Block)
	}
	return s
}

// Keys reports the keyspace size.
func (s *Store) Keys() int { return s.keys }

// Backend reports the array flavor.
func (s *Store) Backend() Backend { return s.backend }

// NumShards reports the number of owning PEs.
func (s *Store) NumShards() int { return s.team.Size() }

// OwnerOf reports the team rank serving key k.
func (s *Store) OwnerOf(k int) int {
	if s.at != nil {
		return s.at.RankOf(k)
	}
	return s.ll.RankOf(k)
}

// LocalRange reports the key range [start, start+n) owned by the calling
// PE.
func (s *Store) LocalRange() (start, n int) {
	if s.at != nil {
		return s.at.LocalRange()
	}
	return s.ll.LocalRange()
}

// Get reads key k. On delivery failure — e.g. a *runtime.DeliveryError
// after the wire layer exhausted retransmissions into a partition — the
// future resolves with a non-nil error; the zero value accompanying an
// error is NOT a read result and callers must treat the op as failed
// (the workload driver counts it as an SLO violation).
func (s *Store) Get(k int) *scheduler.Future[uint64] {
	if s.at != nil {
		return s.at.Load(k)
	}
	return firstOf(s.ll.BatchLoad([]int{k}))
}

// Put writes v at key k. The future resolves once the owner applied the
// write and the origin saw the completion (so a resolved, error-free Put
// is durable at the owner); errors carry delivery failures.
func (s *Store) Put(k int, v uint64) *scheduler.Future[struct{}] {
	var f *scheduler.Future[[]uint64]
	if s.at != nil {
		f = s.at.BatchStore([]int{k}, v)
	} else {
		f = s.ll.BatchOp(array.OpStore, []int{k}, v)
	}
	return scheduler.Map(f, func([]uint64) struct{} { return struct{}{} })
}

// FetchAdd atomically adds d to key k and resolves with the previous
// value (same error contract as Get).
func (s *Store) FetchAdd(k int, d uint64) *scheduler.Future[uint64] {
	if s.at != nil {
		return s.at.FetchAdd(k, d)
	}
	return firstOf(s.ll.BatchFetchOp(array.OpAdd, []int{k}, d))
}

// Flush drains this PE's aggregation buffers for the store, dispatching
// buffered ops immediately.
func (s *Store) Flush() {
	if s.at != nil {
		s.at.FlushBatches()
	} else {
		s.ll.FlushBatches()
	}
}

// LocalSnapshot copies the calling PE's owned chunk (pair with LocalRange
// for global indices). Call between barriers with no writes in flight.
func (s *Store) LocalSnapshot() []uint64 {
	if s.at != nil {
		return append([]uint64(nil), s.at.LocalData()...)
	}
	var out []uint64
	s.ll.ReadLocal(func(data []uint64) { out = append([]uint64(nil), data...) })
	return out
}

// Drop releases the calling PE's handle.
func (s *Store) Drop() {
	if s.at != nil {
		s.at.Drop()
	} else {
		s.ll.Drop()
	}
}

// firstOf adapts a one-element batch future to a scalar future,
// preserving errors.
func firstOf(f *scheduler.Future[[]uint64]) *scheduler.Future[uint64] {
	return scheduler.Map(f, func(vals []uint64) uint64 {
		if len(vals) == 0 {
			return 0
		}
		return vals[0]
	})
}

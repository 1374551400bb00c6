package scheduler

import (
	"sync"
	"sync/atomic"
	"time"
)

// Future is the handle returned by asynchronous runtime operations —
// launching an AM, a batched array operation, an iterator drive — exactly
// where the paper's APIs return Rust Futures. Await (the analogue of
// block_on / .await) blocks only the calling goroutine and cooperatively
// helps the pool execute tasks while waiting, so awaiting inside an AM
// handler cannot starve the executor.
type Future[T any] struct{ st *futState[T] }

type futState[T any] struct {
	pool *Pool
	done chan struct{} // lazily created; see Done()
	set  atomic.Bool
	mu   sync.Mutex
	val  T
	err  error
	then []func(T, error)
	// poll, when non-nil, makes this a condition future: resolution is
	// defined by the predicate instead of a one-shot completion. See
	// NewConditionFuture.
	poll func() (T, error, bool)
}

// closedChan is the shared already-closed channel handed out by Done()
// for futures that resolved before anyone asked for their channel.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Promise is the completion side of a Future.
type Promise[T any] struct{ st *futState[T] }

// NewPromise creates a linked Promise/Future pair. pool may be nil for
// futures awaited outside any executor (they then park instead of helping).
func NewPromise[T any](pool *Pool) (*Promise[T], *Future[T]) {
	st := &futState[T]{pool: pool}
	return &Promise[T]{st}, &Future[T]{st}
}

// NewConditionFuture returns a Future backed by a poll predicate instead
// of a one-shot completion: the future counts as done whenever poll
// currently reports (value, err, true). It is permanently reusable — the
// aggregation layer hands every fire-and-forget element op the same
// condition future (done ⇔ no buffered or in-flight ops), replacing a
// per-op allocation with a shared handle whose Await still guarantees the
// op completed, since the op was issued before Await observed the drained
// state. Unlike promise futures, doneness is not monotonic: new work can
// flip the condition back to pending, which only ever makes Await more
// conservative. Done and OnDone fall back to a polling goroutine and are
// intended for cold paths only.
func NewConditionFuture[T any](pool *Pool, poll func() (T, error, bool)) *Future[T] {
	return &Future[T]{&futState[T]{pool: pool, poll: poll}}
}

const condPollInterval = 5 * time.Microsecond

// Ready returns an already-completed Future.
func Ready[T any](v T) *Future[T] {
	st := &futState[T]{}
	st.val = v
	st.set.Store(true)
	return &Future[T]{st}
}

// Fail returns an already-failed Future.
func Fail[T any](err error) *Future[T] {
	st := &futState[T]{}
	st.err = err
	st.set.Store(true)
	return &Future[T]{st}
}

// Complete resolves the future. Completing twice panics.
func (p *Promise[T]) Complete(v T) { p.finish(v, nil) }

// CompleteErr fails the future.
func (p *Promise[T]) CompleteErr(err error) {
	var zero T
	p.finish(zero, err)
}

func (p *Promise[T]) finish(v T, err error) {
	st := p.st
	st.mu.Lock()
	if st.set.Load() {
		st.mu.Unlock()
		panic("scheduler: promise completed twice")
	}
	st.val, st.err = v, err
	st.set.Store(true)
	cbs := st.then
	st.then = nil
	done := st.done
	st.mu.Unlock()
	if done != nil {
		close(done)
	}
	for _, cb := range cbs {
		cb(v, err)
	}
}

// IsDone reports whether the future has resolved (for condition futures:
// whether the condition currently holds).
func (f *Future[T]) IsDone() bool {
	if f.st.poll != nil {
		_, _, ok := f.st.poll()
		return ok
	}
	return f.st.set.Load()
}

// Done returns a channel closed on resolution (for select integration).
// The channel is created on first request so futures that are never
// selected on (the overwhelming majority of batched array ops) avoid the
// allocation entirely.
func (f *Future[T]) Done() <-chan struct{} {
	st := f.st
	if st.poll != nil {
		// Condition futures have no completion edge to hook; watch the
		// predicate from a goroutine. Cold path by design.
		if _, _, ok := st.poll(); ok {
			return closedChan
		}
		ch := make(chan struct{})
		go func() {
			for {
				if _, _, ok := st.poll(); ok {
					close(ch)
					return
				}
				time.Sleep(condPollInterval)
			}
		}()
		return ch
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.done == nil {
		if st.set.Load() {
			st.done = closedChan
		} else {
			st.done = make(chan struct{})
		}
	}
	return st.done
}

// Await blocks until resolution, helping the attached pool run tasks.
//
// Contract (the same one Rust's block_on family carries): a task running
// on the pool may await (a) futures resolved from outside the pool —
// remote completions, returns, promises completed by other goroutines —
// and (b) futures of work it spawned itself (fork-join). Awaiting a
// future completed by an *earlier-submitted sibling task* can deadlock:
// helpers execute tasks nested on their stack, and a cycle of parked
// helpers waiting on each other's preempted frames cannot make progress.
// The runtime's own await points all follow the contract.
func (f *Future[T]) Await() (T, error) {
	st := f.st
	if st.poll != nil {
		for {
			if v, err, ok := st.poll(); ok {
				return v, err
			}
			if st.pool == nil || !st.pool.TryRunOne() {
				time.Sleep(condPollInterval)
			}
		}
	}
	if st.set.Load() {
		return st.val, st.err
	}
	done := f.Done()
	if st.pool == nil {
		<-done
		return st.val, st.err
	}
	for {
		select {
		case <-done:
			return st.val, st.err
		default:
		}
		if !st.pool.TryRunOne() {
			st.pool.awaitNudge(done)
		}
	}
}

// MustAwait awaits and panics on error; for examples and tests.
func (f *Future[T]) MustAwait() T {
	v, err := f.Await()
	if err != nil {
		panic(err)
	}
	return v
}

// OnDone registers a callback invoked exactly once on resolution (inline
// if already resolved). Callbacks run on the completer's goroutine.
func (f *Future[T]) OnDone(cb func(T, error)) {
	st := f.st
	if st.poll != nil {
		if v, err, ok := st.poll(); ok {
			cb(v, err)
			return
		}
		go func() {
			for {
				if v, err, ok := st.poll(); ok {
					cb(v, err)
					return
				}
				time.Sleep(condPollInterval)
			}
		}()
		return
	}
	st.mu.Lock()
	if st.set.Load() {
		st.mu.Unlock()
		cb(st.val, st.err)
		return
	}
	st.then = append(st.then, cb)
	st.mu.Unlock()
}

// Map derives a future by transforming the value on the completer's path.
func Map[T, U any](f *Future[T], fn func(T) U) *Future[U] {
	p, out := NewPromise[U](f.st.pool)
	f.OnDone(func(v T, err error) {
		if err != nil {
			p.CompleteErr(err)
			return
		}
		p.Complete(fn(v))
	})
	return out
}

// All resolves when every input resolves, collecting values in order; the
// first error wins but resolution still waits for all inputs.
func All[T any](pool *Pool, fs []*Future[T]) *Future[[]T] {
	p, out := NewPromise[[]T](pool)
	n := len(fs)
	if n == 0 {
		p.Complete(nil)
		return out
	}
	vals := make([]T, n)
	var firstErr atomic.Pointer[error]
	var remaining atomic.Int64
	remaining.Store(int64(n))
	for i, f := range fs {
		i, f := i, f
		f.OnDone(func(v T, err error) {
			if err != nil {
				firstErr.CompareAndSwap(nil, &err)
			} else {
				vals[i] = v
			}
			if remaining.Add(-1) == 0 {
				if ep := firstErr.Load(); ep != nil {
					p.CompleteErr(*ep)
				} else {
					p.Complete(vals)
				}
			}
		})
	}
	return out
}

// Spawn submits fn to the pool and returns a Future for its result,
// mirroring `world.spawn(async { ... })`.
func Spawn[T any](pool *Pool, fn func() (T, error)) *Future[T] {
	p, f := NewPromise[T](pool)
	pool.Submit(func() {
		v, err := fn()
		if err != nil {
			p.CompleteErr(err)
			return
		}
		p.Complete(v)
	})
	return f
}

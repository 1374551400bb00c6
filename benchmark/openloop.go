package main

import (
	"sync/atomic"
	"time"
)

// The open-loop driver: request i is due at start + i/rate whatever the
// service is doing. The driver sleeps to the next due time and then issues
// everything that has come due, so a stall in the service (or in the
// driver's own goroutine) delays later requests past their due times — and
// because latency is timed from the due time, that delay is charged to
// them instead of vanishing (no coordinated omission). How late each
// request was actually issued is kept as the generator lag.
//
// kv.Run is not used: it paces with one time.Sleep per request, which
// cannot hold 64 000 req/s, and it records into log2 buckets.

// issueFunc submits request i, due dueNs after the loop's start, and must
// call done exactly once, from any goroutine, when the request completes.
type issueFunc func(i int, dueNs int64, done func(err error))

type openLoopResult struct {
	// lat[i] is request i's latency from its due time in ns; -1 if it
	// failed, 0 if it was still outstanding when the drain timed out.
	lat []int64
	// lag[i] is how long after its due time request i was issued, in ns.
	lag    []int64
	errors uint64
	// outMid and outEnd are the requests outstanding when half and all of
	// the schedule had been issued: a backlog that is still growing shows
	// as outEnd well above outMid.
	outMid, outEnd int64
	undrained      int64
}

// drainTimeout bounds how long the driver waits for stragglers after the
// last request was issued. The runtime's own delivery timeout is 20 s.
const drainTimeout = 30 * time.Second

// openLoop issues n requests at rate per second (all at once if rate <= 0)
// and waits for them to complete.
func openLoop(n int, rate float64, issue issueFunc) *openLoopResult {
	res := &openLoopResult{lat: make([]int64, n), lag: make([]int64, n)}
	var interval float64 // ns
	if rate > 0 {
		interval = 1e9 / rate
	}
	var completed, errors atomic.Int64
	start := time.Now()
	for i := 0; i < n; {
		now := time.Since(start)
		due := n
		if interval > 0 {
			due = min(n, int(float64(now)/interval)+1)
		}
		for ; i < due; i++ {
			i, dueNs := i, int64(float64(i)*interval)
			res.lag[i] = max(int64(time.Since(start))-dueNs, 0)
			issue(i, dueNs, func(err error) {
				if err != nil {
					res.lat[i] = -1
					errors.Add(1)
				} else {
					res.lat[i] = max(int64(time.Since(start))-dueNs, 1)
				}
				completed.Add(1)
			})
			if i == n/2 {
				res.outMid = int64(i+1) - completed.Load()
			}
		}
		if i < n {
			if wait := time.Duration(float64(i)*interval) - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
		}
	}
	res.outEnd = int64(n) - completed.Load()
	for deadline := time.Now().Add(drainTimeout); completed.Load() < int64(n); {
		if time.Now().After(deadline) {
			res.undrained = int64(n) - completed.Load()
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	res.errors = uint64(errors.Load())
	return res
}

// backlogGrowing reports whether the schedule ended with a backlog that
// was still growing: more than slack requests outstanding at the end and
// at least twice what was outstanding at half time.
func (r *openLoopResult) backlogGrowing(slack int64) bool {
	return r.outEnd > slack && r.outEnd >= 2*r.outMid
}

package kv

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// Coordinated-omission accounting: when the service stalls the generator
// (here: one request whose issue path blocks 60ms while everything else
// completes instantly), the requests scheduled *during* the stall must
// record the queueing delay the stall imposed on them — a closed-loop
// driver would report near-zero latency for every request and hide the
// outage entirely.
func TestOpenLoopChargesStallToIntendedSendTime(t *testing.T) {
	const (
		rate    = 1000.0 // 1ms intended interarrival
		reqs    = 120
		stallAt = 20
		stall   = 60 * time.Millisecond
	)
	var issued atomic.Int64
	stalling := func(class OpClass, key int, val uint64, done func(error)) {
		if issued.Add(1) == stallAt {
			time.Sleep(stall) // synchronous stall: blocks the generator loop
		}
		done(nil)
	}
	w := Workload{Requests: reqs, Rate: rate, Skew: 0.99, Seed: 5, NPEs: 1}
	res := w.run(1<<10, stalling)

	var n uint64
	var worst time.Duration
	for c := range res.Classes {
		n += res.Classes[c].Completed
		if m := res.Classes[c].Latency.Max; m > worst {
			worst = m
		}
	}
	if n != reqs {
		t.Fatalf("completed %d of %d requests", n, reqs)
	}
	if res.Errors != 0 {
		t.Fatalf("unexpected errors: %d", res.Errors)
	}
	// The stalled request itself plus everything scheduled behind it must
	// show the stall: max recorded latency close to the full stall.
	if worst < stall/2 {
		t.Errorf("max latency %v hides a %v generator stall (coordinated omission)", worst, stall)
	}
	// ~60 requests had intended send times inside the stall window; at
	// least half of them must record >= 10ms of imposed queueing delay.
	var delayed uint64
	for c := range res.Classes {
		s := res.Classes[c].Latency
		if s.P50 >= 10*time.Millisecond {
			delayed += s.Count / 2
		} else if s.P90 >= 10*time.Millisecond {
			delayed += s.Count / 10
		}
	}
	if delayed == 0 {
		t.Errorf("no request class shows the stall in its percentiles: %+v", res.Classes)
	}
}

// Without a stall, an unthrottled run completes everything and the
// ledger bookkeeping is internally consistent.
func TestOpenLoopLedgerBookkeeping(t *testing.T) {
	instant := func(class OpClass, key int, val uint64, done func(error)) { done(nil) }
	w := Workload{Requests: 5000, Skew: 0.99, Seed: 11, NPEs: 2, PE: 1}
	res := w.run(1<<10, instant)

	var addIssued uint64
	for _, v := range res.AddIssued {
		addIssued += v
	}
	if addIssued != res.Classes[OpFetchAdd].Issued {
		t.Errorf("AddIssued sum %d != fadd issued %d", addIssued, res.Classes[OpFetchAdd].Issued)
	}
	for k := range res.AddIssued {
		if res.AddDone[k] != res.AddIssued[k] {
			t.Errorf("counter key %d: done %d != issued %d on an error-free run",
				k, res.AddDone[k], res.AddIssued[k])
		}
	}
	var puts uint64
	for _, v := range res.PutIssued {
		puts += uint64(v)
	}
	if puts != res.Classes[OpPut].Issued {
		t.Errorf("PutIssued sum %d != put issued %d", puts, res.Classes[OpPut].Issued)
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed time not reported")
	}
}

// Errors must count as SLO violations, stay out of the latency
// histograms, and degrade the ledger check to bounds.
func TestOpenLoopErrorsAreViolations(t *testing.T) {
	boom := errors.New("synthetic delivery failure")
	var n atomic.Int64
	flaky := func(class OpClass, key int, val uint64, done func(error)) {
		if n.Add(1)%10 == 0 {
			done(boom)
			return
		}
		done(nil)
	}
	w := Workload{Requests: 2000, Skew: 0.5, Seed: 3, NPEs: 1}
	res := w.run(256, flaky)
	if res.Errors == 0 {
		t.Fatal("no errors recorded from a flaky issuer")
	}
	var histN, completed, errs uint64
	for c := range res.Classes {
		histN += res.Classes[c].Latency.Count
		completed += res.Classes[c].Completed
		errs += res.Classes[c].Errors
	}
	if errs != res.Errors {
		t.Errorf("per-class errors %d != total %d", errs, res.Errors)
	}
	if completed != 2000 {
		t.Errorf("completed %d, want 2000 (errors still complete)", completed)
	}
	if histN != completed-res.Errors {
		t.Errorf("histograms hold %d samples, want successes only (%d)", histN, completed-res.Errors)
	}
}

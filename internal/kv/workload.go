package kv

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Open-loop Zipfian workload driver. The generator schedules request i at
// intended time start + i/rate regardless of how the service is doing,
// and latency is measured from that *intended* send time — so if the
// service (or the generator itself, when an await blocks it) stalls, the
// queueing delay the stall imposes on subsequent requests lands in their
// recorded latencies instead of silently vanishing. This is the standard
// coordinated-omission fix: a closed-loop driver that waits for slow
// responses before sending more would under-report exactly the tail the
// p999 column exists to expose.
//
// Failed operations (delivery errors) are counted as SLO violations and
// excluded from the latency histograms: a timed-out Get has no latency,
// it has an error, and folding the timeout bound into the percentiles
// would let a lossy fabric "improve" the tail by failing fast.

// OpClass labels the three KV operation types.
type OpClass int

// Operation classes.
const (
	OpGet OpClass = iota
	OpPut
	OpFetchAdd
	NumOpClasses
)

func (c OpClass) String() string {
	switch c {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpFetchAdd:
		return "fadd"
	default:
		return fmt.Sprintf("OpClass(%d)", int(c))
	}
}

// Workload describes one driving PE's traffic.
type Workload struct {
	// Requests is the total number of operations to issue.
	Requests int
	// Rate is the offered load in requests/second; <= 0 issues with no
	// pacing (every intended send time is "now").
	Rate float64
	// Skew is the Zipf exponent s (0 = uniform).
	Skew float64
	// Seed makes the key/op sequence reproducible; drivers on different
	// PEs should fork it (e.g. seed + rank).
	Seed uint64
	// GetFrac/PutFrac set the op mix; FetchAdd takes the remainder.
	// Defaults 0.60 / 0.25.
	GetFrac, PutFrac float64
	// MaxInflight bounds outstanding ops (default 4096). Hitting the
	// bound stalls the generator, which the intended-time accounting
	// charges to the affected requests' latency.
	MaxInflight int
	// PE tags Put values for the phantom-update check.
	PE int
	// NPEs is the world size (ledger dimensioning).
	NPEs int
}

func (w Workload) withDefaults() Workload {
	if w.GetFrac == 0 && w.PutFrac == 0 {
		w.GetFrac, w.PutFrac = 0.60, 0.25
	}
	if w.MaxInflight <= 0 {
		w.MaxInflight = 4096
	}
	if w.NPEs <= 0 {
		w.NPEs = 1
	}
	return w
}

// ClassResult is the per-op-class outcome.
type ClassResult struct {
	Issued, Completed, Errors uint64
	Latency                   telemetry.HistSummary
}

// Result is one driving PE's workload outcome plus its update ledger.
type Result struct {
	Classes [NumOpClasses]ClassResult
	Elapsed time.Duration
	// Errors counts failed ops across classes — each is an SLO violation.
	Errors uint64

	// Ledger for the exactness check (see Ledger): per-counter-key issued
	// and completed FetchAdd totals, and per-register-key Put issue
	// counts from this PE.
	Counters  int
	AddIssued []uint64
	AddDone   []uint64
	PutIssued []uint32
}

// SplitKeys partitions a keyspace into the counter region [0, c) mutated
// only by FetchAdd and the register region [c, n) used by Put/Get. The
// split is what makes ledger exactness checkable: counter keys have a
// commutative history (sum of deltas), register keys carry self-
// describing values.
func SplitKeys(n int) (counters, registers int) {
	c := n / 2
	if c < 1 {
		c = 1
	}
	if c >= n {
		c = n - 1
	}
	if c < 1 { // n == 1: degenerate, all counters
		return n, 0
	}
	return c, n - c
}

// encodePutValue makes register values self-describing: bits [32,64) hold
// key+1 (so 0 always means "never written"), [16,32) the writing PE, and
// [0,16) that PE's per-key sequence number at issue time. The ledger
// check decodes a final register value and rejects it unless this exact
// write was actually issued — a phantom or cross-key misroute cannot
// decode consistently.
func encodePutValue(key, pe int, seq uint32) uint64 {
	return uint64(key+1)<<32 | uint64(pe&0xFFFF)<<16 | uint64(seq&0xFFFF)
}

// issuer submits one operation and must invoke done(err) exactly once on
// completion. Split out from the Store so the open-loop accounting is
// testable against a synthetic (stallable) service.
type issuer func(class OpClass, key int, val uint64, done func(err error))

// Run drives the store from the calling PE and reports the outcome. The
// caller is responsible for collective setup/teardown (barriers).
func Run(s *Store, w Workload) *Result {
	issue := func(class OpClass, key int, val uint64, done func(err error)) {
		switch class {
		case OpGet:
			s.Get(key).OnDone(func(_ uint64, err error) { done(err) })
		case OpPut:
			s.Put(key, val).OnDone(func(_ struct{}, err error) { done(err) })
		default:
			s.FetchAdd(key, val).OnDone(func(_ uint64, err error) { done(err) })
		}
	}
	if w.NPEs <= 0 {
		w.NPEs = s.NumShards()
	}
	return w.run(s.Keys(), issue)
}

// run is the open-loop core over an abstract issuer.
func (w Workload) run(keys int, issue issuer) *Result {
	w = w.withDefaults()
	counters, registers := SplitKeys(keys)

	// Independent deterministic streams: one for the op mix, one key
	// generator per region (regions have different sizes, so one shared
	// generator would entangle their sequences).
	mixRng := NewRand(w.Seed ^ 0xA5A5A5A5)
	counterGen := NewKeyGen(counters, w.Skew, w.Seed+1)
	var registerGen *KeyGen
	if registers > 0 {
		registerGen = NewKeyGen(registers, w.Skew, w.Seed+2)
	}

	res := &Result{
		Counters:  counters,
		AddIssued: make([]uint64, counters),
		AddDone:   make([]uint64, counters),
		PutIssued: make([]uint32, registers),
	}
	// Per-class latency of successful ops; Classes[c].Latency digests them.
	var hists [NumOpClasses]telemetry.Histogram
	var mu sync.Mutex // guards res.Classes counters and AddDone

	var interval time.Duration
	if w.Rate > 0 {
		interval = time.Duration(float64(time.Second) / w.Rate)
	}
	tokens := make(chan struct{}, w.MaxInflight)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < w.Requests; i++ {
		var intended time.Time
		if interval > 0 {
			intended = start.Add(time.Duration(i) * interval)
			if d := time.Until(intended); d > 0 {
				time.Sleep(d)
			}
		} else {
			intended = time.Now()
		}

		// Draw the op and key on the deterministic streams.
		class := OpFetchAdd
		if registerGen != nil {
			switch u := mixRng.Float64(); {
			case u < w.GetFrac:
				class = OpGet
			case u < w.GetFrac+w.PutFrac:
				class = OpPut
			}
		}
		var key int
		var val uint64
		switch class {
		case OpFetchAdd:
			key = counterGen.Next()
			val = 1
			res.AddIssued[key]++
		case OpPut:
			rk := registerGen.Next()
			key = counters + rk
			val = encodePutValue(key, w.PE, res.PutIssued[rk])
			res.PutIssued[rk]++
		default:
			key = counters + registerGen.Next()
		}
		res.Classes[class].Issued++

		tokens <- struct{}{} // inflight bound; stall time is charged below
		wg.Add(1)
		cls, k, sent := class, key, intended
		issue(cls, k, val, func(err error) {
			// Latency from the intended send time, not from when the
			// (possibly stalled) generator actually got the op out.
			lat := time.Since(sent)
			mu.Lock()
			res.Classes[cls].Completed++
			if err != nil {
				res.Classes[cls].Errors++
				res.Errors++
			} else {
				hists[cls].Record(int64(lat))
				if cls == OpFetchAdd {
					res.AddDone[k]++
				}
			}
			mu.Unlock()
			<-tokens
			wg.Done()
		})
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	for c := range res.Classes {
		res.Classes[c].Latency = hists[c].Summary()
	}
	return res
}

// Ledger is the cross-PE merge of workload results used for the
// exactness check: after a run drains, the counter region must hold
// exactly the issued FetchAdd mass (no lost updates, no phantom/double
// applies — the reliable layer dedups duplicates) and every register
// value must decode to a write some PE actually issued.
type Ledger struct {
	Counters int
	NPEs     int
	// AddIssued/AddDone: per counter key, summed over PEs.
	AddIssued []uint64
	AddDone   []uint64
	// PutIssued: [pe][register key] issue counts.
	PutIssued [][]uint32
	// Errors across all PEs: when zero, the counter check is exact;
	// otherwise a timed-out op may or may not have been applied and the
	// check degrades to bounds.
	Errors uint64
}

// MergeLedgers folds per-PE results (indexed by PE) into one ledger.
func MergeLedgers(results []*Result) *Ledger {
	var l *Ledger
	for pe, r := range results {
		if r == nil {
			continue
		}
		if l == nil {
			l = &Ledger{
				Counters:  r.Counters,
				NPEs:      len(results),
				AddIssued: make([]uint64, r.Counters),
				AddDone:   make([]uint64, r.Counters),
				PutIssued: make([][]uint32, len(results)),
			}
		}
		for k, v := range r.AddIssued {
			l.AddIssued[k] += v
		}
		for k, v := range r.AddDone {
			l.AddDone[k] += v
		}
		l.PutIssued[pe] = r.PutIssued
		l.Errors += r.Errors
	}
	return l
}

// VerifyLocal checks the calling PE's owned chunk against the merged
// ledger, returning a description of every violation (nil = exact).
// Collective pattern: barrier, then every PE verifies its own shard.
func VerifyLocal(s *Store, l *Ledger) []string {
	start, _ := s.LocalRange()
	data := s.LocalSnapshot()
	var bad []string
	for i, v := range data {
		g := start + i
		if g < l.Counters {
			issued, done := l.AddIssued[g], l.AddDone[g]
			if l.Errors == 0 {
				if v != issued {
					bad = append(bad, fmt.Sprintf(
						"counter key %d: final %d != issued %d (done %d)", g, v, issued, done))
				}
			} else if v < done || v > issued {
				bad = append(bad, fmt.Sprintf(
					"counter key %d: final %d outside [done %d, issued %d]", g, v, done, issued))
			}
			continue
		}
		if v == 0 {
			continue // never written
		}
		key := int(v>>32) - 1
		pe := int(v >> 16 & 0xFFFF)
		seq := uint32(v & 0xFFFF)
		switch {
		case key != g:
			bad = append(bad, fmt.Sprintf(
				"register key %d: value decodes to key %d (cross-key phantom)", g, key))
		case pe >= l.NPEs || l.PutIssued[pe] == nil:
			bad = append(bad, fmt.Sprintf(
				"register key %d: value claims unknown writer PE %d", g, pe))
		default:
			issued := l.PutIssued[pe][g-l.Counters]
			// The stored sequence is 16-bit; only check when unambiguous.
			if issued <= 0xFFFF && seq >= issued {
				bad = append(bad, fmt.Sprintf(
					"register key %d: PE %d seq %d never issued (only %d puts)", g, pe, seq, issued))
			}
		}
	}
	return bad
}

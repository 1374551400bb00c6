// Package recorder is the runtime's always-on flight recorder: a
// fixed-footprint set of per-PE log2 latency histograms and backlog
// gauges that run for the whole process lifetime, whether or not a
// telemetry session (event rings, timeline export) is active.
//
// The telemetry subsystem answers "what happened during this traced
// window"; the recorder answers "what has this runtime been doing" at
// any moment, with no event-ring cost: every record is a handful of
// atomic adds into pre-allocated arrays — no allocation, no locks, no
// time syscalls beyond the one stamp the caller already took.
//
// Three consumers read it:
//
//   - the stall watchdog derives its "N× p99" stall thresholds from the
//     round-trip histogram;
//   - the reliable wire seeds a cold stream's retransmission timeout
//     from the wire round-trip histogram;
//   - diagnostic dumps (World.WriteDiagnostics, the LAMELLAR_DIAG
//     signal) export a structured JSON Snapshot.
package recorder

import (
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// HistID names one always-on histogram (per PE).
type HistID int

// The recorder's histogram set. All values are nanoseconds.
const (
	// HistRoundTrip is issue→resolution latency of return-style AMs,
	// recorded on every resolution (not only during sessions).
	HistRoundTrip HistID = iota
	// HistBatchAge is the open→flush age of wire batches.
	HistBatchAge
	// HistQueueWait is sampled submit→start latency of pool tasks
	// (1 in 64 tasks when no telemetry session stamps them all).
	HistQueueWait
	// HistWireRTT is the reliable wire layer's frame→cumulative-ack round
	// trip (Karn-filtered: retransmitted frames are never sampled). It
	// seeds the adaptive RTO for streams with no samples of their own.
	HistWireRTT

	// NumHists is the number of recorder histograms.
	NumHists
)

var histNames = [NumHists]string{"am_round_trip_ns", "batch_age_ns", "task_queue_wait_ns", "wire_rtt_ns"}

func (id HistID) String() string {
	if id >= 0 && id < NumHists {
		return histNames[id]
	}
	return "unknown"
}

// PE is one processing element's recorder state. All methods are safe
// from any goroutine at any time.
type PE struct {
	hists [NumHists]telemetry.Histogram
	// unackedNow/unackedPeak track the reliable-wire retained-frame
	// backlog as sampled by the watchdog.
	unackedNow  atomic.Int64
	unackedPeak atomic.Int64
}

// Record adds one nanosecond observation to histogram id.
func (p *PE) Record(id HistID, ns int64) { p.hists[id].Record(ns) }

// Hist returns the live histogram for id.
func (p *PE) Hist(id HistID) *telemetry.Histogram { return &p.hists[id] }

// SetUnacked updates the sampled unacked wire backlog (frames).
func (p *PE) SetUnacked(n int64) {
	p.unackedNow.Store(n)
	for {
		peak := p.unackedPeak.Load()
		if n <= peak || p.unackedPeak.CompareAndSwap(peak, n) {
			return
		}
	}
}

// Unacked reports the last-sampled and peak unacked wire backlog.
func (p *PE) Unacked() (now, peak int64) {
	return p.unackedNow.Load(), p.unackedPeak.Load()
}

// Recorder holds one world's per-PE flight-recorder state.
type Recorder struct {
	start time.Time
	pes   []PE
}

// New creates a recorder for npes PEs.
func New(npes int) *Recorder {
	if npes < 1 {
		npes = 1
	}
	return &Recorder{start: time.Now(), pes: make([]PE, npes)}
}

// NumPEs reports the world size.
func (r *Recorder) NumPEs() int { return len(r.pes) }

// PE returns pe's recorder state; out-of-range PEs clamp to 0 so a
// mislabeled recording site cannot crash the run.
func (r *Recorder) PE(pe int) *PE {
	if pe < 0 || pe >= len(r.pes) {
		pe = 0
	}
	return &r.pes[pe]
}

// Digest is one histogram's JSON summary.
type Digest struct {
	Count  uint64 `json:"count"`
	MeanNs int64  `json:"mean_ns"`
	P50Ns  int64  `json:"p50_ns"`
	P90Ns  int64  `json:"p90_ns"`
	P99Ns  int64  `json:"p99_ns"`
	MaxNs  int64  `json:"max_ns"`
}

func digestOf(h *telemetry.Histogram) Digest {
	s := h.Summary()
	return Digest{
		Count:  s.Count,
		MeanNs: int64(s.Mean),
		P50Ns:  int64(s.P50),
		P90Ns:  int64(s.P90),
		P99Ns:  int64(s.P99),
		MaxNs:  int64(s.Max),
	}
}

// PESnapshot is one PE's recorder state rendered for a diagnostic dump.
type PESnapshot struct {
	PE            int               `json:"pe"`
	Hists         map[string]Digest `json:"histograms"`
	UnackedFrames int64             `json:"unacked_frames"`
	UnackedPeak   int64             `json:"unacked_frames_peak"`
}

// Snapshot is a structured, JSON-marshalable view of the whole recorder.
type Snapshot struct {
	UptimeMs int64        `json:"uptime_ms"`
	PEs      []PESnapshot `json:"pes"`
}

// Snapshot renders the recorder's current state. Safe at any time; the
// digests are computed from the live atomics.
func (r *Recorder) Snapshot() Snapshot {
	snap := Snapshot{
		UptimeMs: time.Since(r.start).Milliseconds(),
		PEs:      make([]PESnapshot, len(r.pes)),
	}
	for pe := range r.pes {
		p := &r.pes[pe]
		hs := make(map[string]Digest, NumHists)
		for id := HistID(0); id < NumHists; id++ {
			hs[id.String()] = digestOf(&p.hists[id])
		}
		now, peak := p.Unacked()
		snap.PEs[pe] = PESnapshot{PE: pe, Hists: hs, UnackedFrames: now, UnackedPeak: peak}
	}
	return snap
}

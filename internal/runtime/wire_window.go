package runtime

// Pure flow-control state machines for the reliable wire layer: the
// per-(src,dst) AIMD send window and the Jacobson/Karn retransmission-
// timeout estimator. Both are plain value types mutated under the owning
// relPair's mutex — no atomics, no time sources — so the control laws are
// unit-testable against scripted ack traces (wire_window_test.go) apart
// from the concurrent machinery that drives them.

// sendWindow is the congestion window of one (src,dst) stream, counted in
// frames. Growth follows TCP's two regimes: slow start (one frame per
// acked frame, doubling per round trip) until ssthresh, then congestion
// avoidance (one frame per full window of acked frames — the "additive
// increase"). A retransmission halves the window ("multiplicative
// decrease"), but only once per recovery epoch: every frame outstanding
// at the moment of the loss belongs to the same congestion event, so
// their individual timeouts must not compound the penalty.
type sendWindow struct {
	cwnd     int // current window, frames
	ssthresh int // slow start → congestion avoidance crossover
	credit   int // acked frames accumulated toward the next +1
	min      int // floor the window can never drop below
	// recoverSeq marks the recovery epoch: losses of frames below it were
	// already charged. Set to the stream's nextSeq when a loss is charged.
	recoverSeq uint64
}

func newSendWindow(min, max int) sendWindow {
	if min < 1 {
		min = 1
	}
	return sendWindow{cwnd: min, ssthresh: max, min: min}
}

// onAck credits n cleanly acknowledged frames, growing the window up to
// max (the configured frame cap).
func (w *sendWindow) onAck(n, max int) {
	for i := 0; i < n; i++ {
		if w.cwnd >= max {
			w.cwnd = max
			w.credit = 0
			return
		}
		if w.cwnd < w.ssthresh {
			w.cwnd++ // slow start: +1 per acked frame
			continue
		}
		w.credit++ // congestion avoidance: +1 per cwnd acked frames
		if w.credit >= w.cwnd {
			w.credit = 0
			w.cwnd++
		}
	}
}

// onLoss charges one retransmission/timeout of frame seq against the
// window: halve, floored at min, at most once per recovery epoch.
// nextSeq is the stream's next unassigned sequence number; frames below
// it were in flight during this congestion event and are covered by the
// same charge. Reports whether the window actually halved.
//
// ssthresh is set to the pre-loss cwnd, so recovery slow-starts back to
// the old operating point in ~one round trip and only then resumes
// additive probing. (TCP sets ssthresh to the *post*-halve window, which
// makes every recovery linear from half rate — tuned for links where
// loss means congestion. A PGAS fabric's loss is dominated by
// non-congestive damage — the fault plans model exactly that — so a
// single damaged frame must not depress a fat stream for hundreds of
// round trips. Sustained loss still walks the window down: each new
// epoch halves from the current, lower, cwnd and lowers the re-ramp
// target with it.)
func (w *sendWindow) onLoss(seq, nextSeq uint64) bool {
	if seq < w.recoverSeq {
		return false // same recovery epoch: already charged
	}
	w.ssthresh = w.cwnd
	w.cwnd /= 2
	if w.cwnd < w.min {
		w.cwnd = w.min
	}
	w.credit = 0
	w.recoverSeq = nextSeq
	return true
}

// rttEstimator is the standard Jacobson/Karels smoothed round-trip
// estimator (RFC 6298 constants): srtt += (s-srtt)/8, rttvar +=
// (|s-srtt|-rttvar)/4, rto = srtt + 4·rttvar. Zero srtt means no samples
// yet. Karn's rule — never sample a retransmitted frame, its ack is
// ambiguous — is enforced by the caller via rttSampleNs.
type rttEstimator struct {
	srttNs   int64
	rttvarNs int64
}

func (e *rttEstimator) observe(sampleNs int64) {
	if sampleNs <= 0 {
		return
	}
	if e.srttNs == 0 {
		e.srttNs = sampleNs
		e.rttvarNs = sampleNs / 2
		return
	}
	d := sampleNs - e.srttNs
	if d < 0 {
		d = -d
	}
	e.rttvarNs += (d - e.rttvarNs) / 4
	e.srttNs += (sampleNs - e.srttNs) / 8
}

// rto returns the current retransmission timeout clamped to [min, max],
// or 0 when no samples have been observed yet. The timeout is floored at
// 2·srtt: with duplicate-ack fast retransmit as the primary loss
// detector, the timer is a tail-loss backstop, and on a steady link where
// rttvar converges toward zero the textbook srtt+4·rttvar collapses to
// ~srtt — a hair trigger that any ack-coalescing jitter would trip.
func (e *rttEstimator) rto(minNs, maxNs int64) int64 {
	if e.srttNs == 0 {
		return 0
	}
	rto := e.srttNs + 4*e.rttvarNs
	if m := 2 * e.srttNs; rto < m {
		rto = m
	}
	if rto < minNs {
		rto = minNs
	}
	if rto > maxNs {
		rto = maxNs
	}
	return rto
}

// rttSampleNs derives the Karn-valid round-trip sample for a frame
// released by a cumulative ack: the ack stamp minus the frame's last
// transmission, but only for frames never retransmitted (attempts == 0) —
// a retransmitted frame's ack cannot be attributed to a particular
// transmission, and sampling it would feed backoff-inflated values into
// the estimator. Returns 0 when no valid sample exists.
func rttSampleNs(ackNs, sentNs int64, attempts int) int64 {
	if attempts != 0 || sentNs <= 0 || ackNs <= sentNs {
		return 0
	}
	return ackNs - sentNs
}

package runtime

import "repro/internal/telemetry"

// PendingBatch stages the acks w owes dst and seals w's open frames for
// dst, then returns a copy of the batch queued for dst. The batch still
// ships as usual.
func (w *World) PendingBatch(dst int) []byte {
	w.putAcks(dst)
	q := w.queues[dst]
	q.mu.Lock()
	defer q.mu.Unlock()
	w.sealLocked(dst, q, telemetry.FlushDrain, nil)
	return append([]byte(nil), q.enc.Bytes()...)
}

// DecodeBatch runs the receive walker's framing and envelope decoding
// over batch as if PE src had sent it to w: returns and acks resolve, and
// exec envelopes decode into tasks that are dropped unrun.
func (w *World) DecodeBatch(src int, batch []byte) {
	rx := &rxState{w: w, src: src, batch: batch}
	rx.decode(nil)
}

// StartWorld builds a world from cfg without running a program on it and
// returns PE 0's handle and the function that shuts the world down.
func StartWorld(cfg Config) (*World, func(), error) {
	env, err := newEnv(cfg)
	if err != nil {
		return nil, nil, err
	}
	return env.worlds[0], env.close, nil
}

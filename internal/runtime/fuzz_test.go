package runtime_test

import (
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/diag"
	"repro/internal/runtime"
	"repro/internal/serde"
)

// noteAM is a fire-and-forget AM for the seed batches.
type noteAM struct{ N uint64 }

func (a *noteAM) Exec(*runtime.Context) any                { return nil }
func (a *noteAM) MarshalLamellar(e *serde.Encoder)         { e.PutUvarint(a.N) }
func (a *noteAM) UnmarshalLamellar(d *serde.Decoder) error { a.N = d.Uvarint(); return d.Err() }

func init() { runtime.RegisterAM[noteAM]("runtime_test.note") }

// seedBatches captures two wire batches from a two-PE world: PE 0's
// batch to PE 1 holds an AM and a sealed array frame whose fetch expects
// a return, and PE 1's answer holds that return and an ack. With traced
// set, a telemetry session stamps trace contexts on the exec envelopes.
// The background flusher runs at 250 ms, so it rarely ships a batch
// before its capture; a batch it empties is left out.
func seedBatches(tb testing.TB, traced bool) [][]byte {
	var out [2][]byte
	cfg := runtime.Config{PEs: 2, WorkersPerPE: 1, Lamellae: runtime.LamellaeShmem,
		Telemetry: traced, FlushInterval: 250 * time.Millisecond}
	err := runtime.Run(cfg, func(w *runtime.World) {
		a := array.NewAtomicArray[uint64](w.Team(), 64, array.Block)
		defer a.Drop()
		w.Barrier()
		base := w.Stats().EnvelopesProcessed
		w.Barrier()
		switch w.MyPE() {
		case 0:
			w.ExecAM(1, &noteAM{N: 7})
			a.FetchAdd(63, 1) // owned by PE 1
			out[0] = w.PendingBatch(1)
			w.Flush()
		case 1:
			deadline := time.Now().Add(10 * time.Second)
			for w.Stats().EnvelopesProcessed < base+2 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			out[1] = w.PendingBatch(0)
			w.Flush()
		}
		w.Barrier()
	})
	if err != nil {
		tb.Fatal(err)
	}
	return out[:]
}

// FuzzReceiveBatch feeds arbitrary bytes to the receive walker as a
// batch from PE 1: the batch framing (u32 length, 8-byte alignment) and
// each envelope's header (kind byte, trace uvarints, request uvarint,
// ack count) must reject malformed input without panicking.
func FuzzReceiveBatch(f *testing.F) {
	seeds := 0
	for _, traced := range []bool{false, true} {
		for _, b := range seedBatches(f, traced) {
			if len(b) > 0 {
				f.Add(b)
				seeds++
			}
		}
	}
	if seeds == 0 {
		f.Fatal("no seed batch captured")
	}
	w, stop, err := runtime.StartWorld(runtime.Config{PEs: 2, WorkersPerPE: 1, Lamellae: runtime.LamellaeShmem})
	if err != nil {
		f.Fatal(err)
	}
	defer stop()
	lvl := diag.CurrentLevel()
	diag.SetLevel(diag.LevelNone) // malformed batches are logged, not failed
	defer diag.SetLevel(lvl)
	f.Fuzz(func(t *testing.T, batch []byte) {
		w.DecodeBatch(1, batch)
	})
}

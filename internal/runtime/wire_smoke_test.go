package runtime

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/serde"
)

// seqAM records its sequence number on the PE it executes on, so a
// smoke run can check every AM ran exactly once and only on its target.
type seqAM struct {
	Seq  uint32
	Data []byte
}

// seqHits[seq] counts executions of seqAM seq on PE 1; seqMisrouted
// counts executions anywhere else.
var (
	seqHits      []atomic.Uint32
	seqMisrouted atomic.Uint64
)

func (a *seqAM) MarshalLamellar(e *serde.Encoder) {
	e.PutUvarint(uint64(a.Seq))
	e.PutBytes(a.Data)
}

func (a *seqAM) UnmarshalLamellar(d *serde.Decoder) error {
	a.Seq = uint32(d.Uvarint())
	a.Data = d.Bytes()
	return d.Err()
}

func (a *seqAM) Exec(ctx *Context) any {
	if ctx.CurrentPE() != 1 || int(a.Seq) >= len(seqHits) {
		seqMisrouted.Add(1)
		return nil
	}
	seqHits[a.Seq].Add(1)
	return nil
}

func init() { RegisterAM[seqAM]("test.seq") }

// Wire smoke: PE 0 streams 1 KiB AMs to PE 1 over the reliable wire on a
// clean fabric and on three seeded faulted ones. Every AM must execute
// exactly once on its target, the sender's completion ledger must
// balance, the faulted plans must actually inject faults, and each run
// must finish before a deadline instead of hanging on a wedged wire.
// Each round ends in WaitAll, which flushes the round's frames, so every
// plan puts at least rounds data frames on the wire.
func TestWireSmokeSeededPlans(t *testing.T) {
	const (
		rounds   = 200
		perRound = 20
		payload  = 1024
		deadline = 60 * time.Second
	)
	plans := []struct {
		name    string
		plan    *fabric.FaultPlan
		faulted bool
	}{
		// Explicit plans opt out of the process-wide LAMELLAR_FAULT_* env,
		// so each row stays what it claims to be.
		{"clean", fabric.NewFaultPlan(0), false},
		{"drop5", fabric.NewFaultPlan(40).SetDefault(fabric.LinkFaults{DropRate: 0.05}), true},
		{"faulted5", fabric.NewFaultPlan(41).SetDefault(fabric.LinkFaults{
			DropRate: 0.05, DupRate: 0.05, ReorderRate: 0.05, Delay: 500 * time.Microsecond}), true},
		{"reorder10", fabric.NewFaultPlan(42).SetDefault(fabric.LinkFaults{
			ReorderRate: 0.10, Delay: 500 * time.Microsecond}), true},
	}
	for _, p := range plans {
		t.Run(p.name, func(t *testing.T) {
			seqHits = make([]atomic.Uint32, rounds*perRound)
			seqMisrouted.Store(0)
			cfg := Config{PEs: 2, WorkersPerPE: 2, Lamellae: LamellaeShmem, Faults: p.plan}
			var sender Stats
			done := make(chan error, 1)
			go func() {
				done <- Run(cfg, func(w *World) {
					if w.MyPE() == 0 {
						data := make([]byte, payload)
						for i := range data {
							data[i] = byte(i)
						}
						for r := 0; r < rounds; r++ {
							for i := 0; i < perRound; i++ {
								w.ExecAM(1, &seqAM{Seq: uint32(r*perRound + i), Data: data})
							}
							w.WaitAll()
						}
						sender = w.Stats()
					}
					w.Barrier()
				})
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(deadline):
				t.Fatalf("run did not finish within %v: delivery wedged", deadline)
			}
			for seq := range seqHits {
				if n := seqHits[seq].Load(); n != 1 {
					t.Errorf("AM %d executed %d times on PE 1, want exactly once", seq, n)
				}
			}
			if n := seqMisrouted.Load(); n != 0 {
				t.Errorf("%d AMs executed off their target PE", n)
			}
			if sender.Issued < rounds*perRound || sender.Issued != sender.Completed {
				t.Errorf("sender issued %d, completed %d; want %d+ issued, all completed",
					sender.Issued, sender.Completed, rounds*perRound)
			}
			if p.faulted && sender.WireFaultsInjected == 0 {
				t.Errorf("plan injected no faults into %d frames", sender.BatchesSent)
			}
			t.Logf("%s: frames=%d retx=%d faults=%d dup_dropped=%d",
				p.name, sender.BatchesSent, sender.WireRetries, sender.WireFaultsInjected, sender.WireDupDropped)
		})
	}
}

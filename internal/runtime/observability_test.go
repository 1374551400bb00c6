package runtime

import (
	"bytes"
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/telemetry"
	"repro/internal/telemetry/recorder"
)

// Trace context must survive the reliable wire's retransmit/dedup
// machinery: under heavy injected drop/dup/reorder, every am.return
// event must still carry the flow id its am.issue opened, and every
// remote am.exec must reference an issued flow — duplicated frames must
// not manufacture spans, dropped frames must not lose them.
func TestTraceContextSurvivesFaultyWire(t *testing.T) {
	const pes = 3
	const opsPerPE = 40
	tc, owned := telemetry.StartGlobal(pes, 0)
	if !owned {
		t.Fatal("telemetry session already running")
	}
	defer telemetry.StopGlobal(tc)

	plan := fabric.NewFaultPlan(11).SetDefault(fabric.LinkFaults{
		DropRate: 0.2, DupRate: 0.2, ReorderRate: 0.2,
	})
	cfg := faultCfg(pes, LamellaeShmem, plan)
	cfg.Telemetry = true

	var retries, dedups atomic.Uint64
	err := Run(cfg, func(w *World) {
		w.Barrier()
		next := (w.MyPE() + 1) % pes
		for i := 0; i < opsPerPE; i++ {
			v, err := BlockOn(w, ExecTyped[uint64](w, next, &echoAM{X: uint64(i)}))
			if err != nil {
				panic(err)
			}
			if want := uint64(next)*1000 + uint64(i); v != want {
				panic("wrong echo value")
			}
		}
		w.Barrier()
		s := w.Stats()
		retries.Add(s.WireRetries)
		dedups.Add(s.WireDupDropped)
	})
	if err != nil {
		t.Fatal(err)
	}
	if retries.Load() == 0 {
		t.Error("fault plan injected no retransmissions; test is vacuous")
	}
	if dedups.Load() == 0 {
		t.Error("fault plan caused no dedups; test is vacuous")
	}

	issued := make(map[uint64]bool)
	for pe := 0; pe < pes; pe++ {
		for _, ev := range tc.Events(pe) {
			if ev.Kind == telemetry.EvAMIssue && ev.Flow != 0 {
				issued[ev.Flow] = true
			}
		}
	}
	if len(issued) == 0 {
		t.Fatal("no flows issued")
	}
	var execs, returns int
	for pe := 0; pe < pes; pe++ {
		for _, ev := range tc.Events(pe) {
			switch ev.Kind {
			case telemetry.EvAMExec:
				if ev.Flow != 0 {
					execs++
					if !issued[ev.Flow] {
						t.Fatalf("PE%d am.exec carries flow %d that no am.issue opened", pe, ev.Flow)
					}
				}
			case telemetry.EvAMReturn:
				if ev.Flow != 0 {
					returns++
					if !issued[ev.Flow] {
						t.Fatalf("PE%d am.return carries flow %d that no am.issue opened", pe, ev.Flow)
					}
				}
			}
		}
	}
	if execs == 0 || returns == 0 {
		t.Fatalf("no flow-stamped exec/return events (execs=%d returns=%d)", execs, returns)
	}
}

// The watchdog must detect a partitioned link: a future outstanding far
// beyond the recorded p99 and a non-shrinking unacked backlog are both
// flagged within a few sampling intervals.
func TestWatchdogDetectsPartitionStall(t *testing.T) {
	plan := fabric.NewFaultPlan(17).SetDefault(fabric.LinkFaults{
		DropRate: 0.05, DupRate: 0.05, ReorderRate: 0.05,
	})
	cfg := Config{
		PEs: 2, WorkersPerPE: 2, Lamellae: LamellaeShmem,
		Faults:              plan,
		RetryInterval:       2 * time.Millisecond,
		RetryBackoffMax:     10 * time.Millisecond,
		DeliveryTimeout:     30 * time.Second,
		WatchdogInterval:    20 * time.Millisecond,
		WatchdogStallFactor: 4,
	}
	var flagged uint64
	err := Run(cfg, func(w *World) {
		w.Barrier()
		if w.MyPE() == 0 {
			// Establish a round-trip baseline so the stall threshold is
			// grounded in a real digest, then cut the link mid-flight.
			for i := 0; i < 20; i++ {
				if _, err := BlockOn(w, ExecTyped[uint64](w, 1, &echoAM{X: 1})); err != nil {
					panic(err)
				}
			}
			plan.Partition(0, 1, true)
			fut := ExecTyped[uint64](w, 1, &echoAM{X: 2})
			// 8×20ms floor = 160ms; give the sampler a comfortable margin
			// to cross it and flag on several consecutive ticks.
			deadline := time.Now().Add(3 * time.Second)
			for time.Now().Before(deadline) {
				h := w.Health()
				if h[telemetry.HealthFutureStall] > 0 || h[telemetry.HealthBacklogGrowth] > 0 {
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
			h := w.Health()
			flagged = h[telemetry.HealthFutureStall] + h[telemetry.HealthBacklogGrowth]
			plan.Heal(0, 1, true)
			if _, err := BlockOn(w, fut); err != nil {
				panic(err) // healed before DeliveryTimeout; must complete
			}
		}
		w.WaitAll()
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if flagged == 0 {
		t.Fatal("watchdog never flagged the partitioned link (future_stall=0, backlog_growth=0)")
	}
}

// Starvation needs parked workers beside queued tasks AND a pool that
// executed nothing since the previous tick, on consecutive ticks: a woken
// worker that is not running yet reads as parked while its pool still
// makes progress.
func TestStarvationNeedsStalledPool(t *testing.T) {
	type tick struct {
		starved  bool
		executed uint64
	}
	cases := []struct {
		name  string
		ticks []tick
		want  []int
	}{
		{"progress while starved", []tick{{true, 14178}, {true, 15224}, {true, 16001}}, []int{0, 0, 0}},
		{"stalled", []tick{{true, 10}, {true, 10}, {true, 10}}, []int{0, 1, 2}},
		{"stall then progress", []tick{{true, 5}, {true, 5}, {true, 5}, {true, 6}, {true, 6}}, []int{0, 1, 2, 0, 1}},
		{"not starved", []tick{{false, 7}, {false, 7}}, []int{0, 0}},
	}
	for _, c := range cases {
		n, last := 0, uint64(0)
		for k, tk := range c.ticks {
			n = starvationTicks(n, tk.starved, tk.executed, last)
			last = tk.executed
			if n != c.want[k] {
				t.Errorf("%s: tick %d counts %d starved ticks, want %d", c.name, k, n, c.want[k])
			}
		}
	}
}

// The always-on flight recorder must fill its round-trip and batch-age
// digests with NO telemetry session: the watchdog and diag dumps read
// them in every run.
func TestRecorderDigestsWithoutSession(t *testing.T) {
	if telemetry.Enabled() {
		t.Fatal("test requires no live telemetry session")
	}
	cfg := Config{PEs: 2, WorkersPerPE: 2, Lamellae: LamellaeSim}
	err := Run(cfg, func(w *World) {
		w.Barrier()
		if w.MyPE() == 0 {
			for i := 0; i < 50; i++ {
				if _, err := BlockOn(w, ExecTyped[uint64](w, 1, &echoAM{X: uint64(i)})); err != nil {
					panic(err)
				}
			}
		}
		w.Barrier()
		if w.MyPE() == 0 {
			p := w.env.rec.PE(0)
			if s := p.Hist(recorder.HistRoundTrip).Summary(); s.Count == 0 || s.P90 <= 0 {
				panic("recorder has no round-trip digest without a telemetry session")
			}
			if p.Hist(recorder.HistBatchAge).Summary().Count == 0 {
				panic("recorder has no batch-age digest without a telemetry session")
			}
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// WriteDiagnostics must render a parseable snapshot naming the oldest
// outstanding ops and carrying non-empty recorder digests — with no
// telemetry session required.
func TestDiagnosticSnapshot(t *testing.T) {
	cfg := Config{PEs: 2, WorkersPerPE: 2, Lamellae: LamellaeSim}
	err := Run(cfg, func(w *World) {
		w.Barrier()
		if w.MyPE() == 0 {
			for i := 0; i < 30; i++ {
				if _, err := BlockOn(w, ExecTyped[uint64](w, 1, &echoAM{X: 1})); err != nil {
					panic(err)
				}
			}
			var buf bytes.Buffer
			if err := w.WriteDiagnostics(&buf); err != nil {
				panic(err)
			}
			var snap DiagSnapshot
			if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
				panic("diagnostic dump is not valid JSON: " + err.Error())
			}
			if snap.PEs != 2 || len(snap.Worlds) != 2 {
				panic("diagnostic dump has wrong world shape")
			}
			rt := snap.Recorder.PEs[0].Hists["am_round_trip_ns"]
			if rt.Count == 0 || rt.P99Ns <= 0 {
				panic("diagnostic dump carries no round-trip digest")
			}
			if snap.Worlds[0].Issued == 0 {
				panic("diagnostic dump shows zero issued AMs")
			}
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

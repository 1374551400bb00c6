package runtime

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/telemetry/recorder"
)

// TestTelemetryEndToEnd runs a two-PE world with the telemetry subsystem
// on: lifecycle events must land in the rings, the flight recorder must
// carry the latency digests, and the timeline written at shutdown must
// be valid Chrome trace JSON.
func TestTelemetryEndToEnd(t *testing.T) {
	testCounter.Store(0)
	path := filepath.Join(t.TempDir(), "timeline.json")
	cfg := Config{PEs: 2, WorkersPerPE: 2, Lamellae: LamellaeSim,
		Telemetry: true, TraceOut: path}
	var report Stats
	var digests map[string]recorder.Digest
	err := Run(cfg, func(w *World) {
		if w.MyPE() == 0 {
			for i := 0; i < 200; i++ {
				w.ExecAM(1, &incrAM{Delta: 1})
			}
			if _, err := BlockOn(w, w.ExecAMReturn(1, &echoAM{X: 42})); err != nil {
				panic(err)
			}
		}
		w.WaitAll()
		w.Barrier()
		if w.MyPE() == 0 {
			report = w.Stats()
			digests = w.DiagSnapshot().Recorder.PEs[0].Hists
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if telemetry.Enabled() || telemetry.C() != nil {
		t.Fatal("telemetry session must end with the world")
	}

	if report.Issued != 201 || report.Completed != 201 {
		t.Errorf("ams = %d/%d, want 201/201", report.Completed, report.Issued)
	}
	if report.BatchesSent == 0 {
		t.Error("no wire batches counted")
	}
	var reasons uint64
	for _, n := range report.BatchFlushReasons {
		reasons += n
	}
	if reasons != report.BatchesSent {
		t.Errorf("flush reasons sum to %d, batches sent %d", reasons, report.BatchesSent)
	}
	for _, id := range []recorder.HistID{recorder.HistRoundTrip, recorder.HistQueueWait, recorder.HistBatchAge} {
		if digests[id.String()].Count == 0 {
			t.Errorf("no %s latency recorded", id)
		}
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("timeline not written: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if n, ok := ev["name"].(string); ok {
			names[n] = true
		}
	}
	for _, want := range []string{"task.run", "am.issue", "am.exec", "agg.flush", "fabric.put", "process_name"} {
		if !names[want] {
			t.Errorf("timeline missing %q events (have %v)", want, names)
		}
	}
}

// TestTelemetryDisabledIsInert checks the default path: no session, no
// events, yet Stats counts and the flight recorder's digests fill anyway.
func TestTelemetryDisabledIsInert(t *testing.T) {
	testCounter.Store(0)
	var report Stats
	var digests map[string]recorder.Digest
	err := Run(Config{PEs: 2, WorkersPerPE: 1, Lamellae: LamellaeSim}, func(w *World) {
		if w.MyPE() == 0 {
			for i := 0; i < 50; i++ {
				w.ExecAM(1, &incrAM{Delta: 1})
			}
			if _, err := BlockOn(w, w.ExecAMReturn(1, &echoAM{X: 7})); err != nil {
				panic(err)
			}
		}
		w.WaitAll()
		w.Barrier()
		if w.MyPE() == 0 {
			report = w.Stats()
			digests = w.DiagSnapshot().Recorder.PEs[0].Hists
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if telemetry.Enabled() {
		t.Fatal("telemetry enabled without being configured")
	}
	if report.Issued != 51 {
		t.Errorf("issued = %d", report.Issued)
	}
	if report.BatchesSent == 0 {
		t.Error("batch counters must work without telemetry")
	}
	for _, id := range []recorder.HistID{recorder.HistRoundTrip, recorder.HistBatchAge} {
		if digests[id.String()].Count == 0 {
			t.Errorf("recorder %s digest empty without a session: %+v", id, digests)
		}
	}
}

// TestApplyEnvTelemetry checks the LAMELLAR_TRACE* environment knobs.
func TestApplyEnvTelemetry(t *testing.T) {
	t.Setenv("LAMELLAR_TRACE", "1")
	t.Setenv("LAMELLAR_TRACE_RING", "2048")
	c := Config{}.ApplyEnv()
	if !c.Telemetry || c.TraceRingCap != 2048 {
		t.Errorf("ApplyEnv = %+v", c)
	}
	t.Setenv("LAMELLAR_TRACE", "")
	t.Setenv("LAMELLAR_TRACE_OUT", "/tmp/x.json")
	c = Config{}.ApplyEnv()
	if !c.Telemetry || c.TraceOut != "/tmp/x.json" {
		t.Errorf("TRACE_OUT must imply telemetry: %+v", c)
	}
}

package runtime

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"

	"repro/internal/diag"
	"repro/internal/telemetry"
	"repro/internal/telemetry/recorder"
)

// Diagnostic dumps: every live world can render a structured JSON
// snapshot of its flight recorder, health counters, and oldest
// outstanding operations — on demand through World.WriteDiagnostics, or
// process-wide via the LAMELLAR_DIAG signal (SIGUSR1/SIGUSR2; see
// diag_signal_unix.go). This is the "kill -USR1 the stuck job and read
// what it was doing" workflow, with no telemetry session required.

// diagRegistry tracks live worldEnvs so a signal can dump all of them.
var diagRegistry = struct {
	sync.Mutex
	envs map[*worldEnv]struct{}
}{envs: make(map[*worldEnv]struct{})}

func registerEnv(env *worldEnv) {
	diagRegistry.Lock()
	diagRegistry.envs[env] = struct{}{}
	diagRegistry.Unlock()
	diagSignalInit()
}

func unregisterEnv(env *worldEnv) {
	diagRegistry.Lock()
	delete(diagRegistry.envs, env)
	diagRegistry.Unlock()
}

// OutstandingOp names one outstanding return-style AM in a dump.
type OutstandingOp struct {
	Req   uint64 `json:"req"`
	Dst   int    `json:"dst"`
	AgeMs int64  `json:"age_ms"`
}

// PEDiag is one PE's slice of a diagnostic snapshot.
type PEDiag struct {
	PE int `json:"pe"`
	// Issued/Completed mirror Stats; their gap is the in-flight count.
	Issued    uint64 `json:"issued"`
	Completed uint64 `json:"completed"`
	// Health tallies watchdog flags by kind name (omitted kinds are 0).
	Health map[string]uint64 `json:"health,omitempty"`
	// Outstanding lists the oldest outstanding ops, oldest first (≤5).
	Outstanding []OutstandingOp `json:"outstanding,omitempty"`
	// WaitingMs is how long the PE has been blocked in WaitAll (0 = not).
	WaitingMs int64 `json:"waiting_ms,omitempty"`
}

// DiagSnapshot is a world's full diagnostic dump.
type DiagSnapshot struct {
	PEs      int               `json:"pes"`
	Lamellae LamellaeKind      `json:"lamellae"`
	Recorder recorder.Snapshot `json:"recorder"`
	Worlds   []PEDiag          `json:"worlds"`
}

// topOutstanding returns the up-to-max oldest outstanding requests.
func (w *World) topOutstanding(now int64, max int) []OutstandingOp {
	var ops []OutstandingOp
	w.retMu.Lock()
	for r, e := range w.returns {
		if e.issueNs == 0 {
			continue
		}
		ops = append(ops, OutstandingOp{Req: r, Dst: int(e.dst), AgeMs: (now - e.issueNs) / 1e6})
	}
	w.retMu.Unlock()
	sort.Slice(ops, func(a, b int) bool { return ops[a].AgeMs > ops[b].AgeMs })
	if len(ops) > max {
		ops = ops[:max]
	}
	return ops
}

func (env *worldEnv) diagSnapshot() DiagSnapshot {
	now := telemetry.MonoNow()
	snap := DiagSnapshot{
		PEs:      env.cfg.PEs,
		Lamellae: env.cfg.Lamellae,
		Recorder: env.rec.Snapshot(),
		Worlds:   make([]PEDiag, len(env.worlds)),
	}
	for pe, w := range env.worlds {
		pd := PEDiag{
			PE:          pe,
			Issued:      w.issued.Load(),
			Completed:   w.completed.Load(),
			Outstanding: w.topOutstanding(now, 5),
		}
		if since := w.waitingSince.Load(); since != 0 {
			pd.WaitingMs = (now - since) / 1e6
		}
		h := w.Health()
		for k, n := range h {
			if n != 0 {
				if pd.Health == nil {
					pd.Health = make(map[string]uint64)
				}
				pd.Health[telemetry.HealthKind(k).String()] = n
			}
		}
		snap.Worlds[pe] = pd
	}
	return snap
}

// DiagSnapshot renders the world's current diagnostic state: flight-
// recorder digests per PE, watchdog health counters, and the oldest
// outstanding operations. Safe to call at any time from any goroutine.
func (w *World) DiagSnapshot() DiagSnapshot { return w.env.diagSnapshot() }

// WriteDiagnostics writes the snapshot as indented JSON.
func (w *World) WriteDiagnostics(out io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(w.DiagSnapshot())
}

// DumpAllDiagnostics writes one JSON snapshot per live world to out.
// The LAMELLAR_DIAG signal handler funnels here; it is also callable
// directly (e.g. from a debug HTTP endpoint).
func DumpAllDiagnostics(out io.Writer) {
	diagRegistry.Lock()
	envs := make([]*worldEnv, 0, len(diagRegistry.envs))
	for env := range diagRegistry.envs {
		envs = append(envs, env)
	}
	diagRegistry.Unlock()
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	for _, env := range envs {
		if err := enc.Encode(env.diagSnapshot()); err != nil {
			diag.Errorf("diag", "writing diagnostic dump: %v", err)
			return
		}
	}
}

// diagDumpTarget resolves where signal-triggered dumps go: the file
// named by LAMELLAR_DIAG_OUT (append mode), else stderr. Opened per
// dump so rotation/deletion between dumps is harmless.
func diagDumpTarget() (io.Writer, func()) {
	if path := os.Getenv("LAMELLAR_DIAG_OUT"); path != "" {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			diag.Errorf("diag", "opening LAMELLAR_DIAG_OUT %q: %v (using stderr)", path, err)
			return os.Stderr, func() {}
		}
		return f, func() { f.Close() }
	}
	return os.Stderr, func() {}
}

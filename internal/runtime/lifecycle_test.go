package runtime

import (
	stdruntime "runtime"
	"testing"
	"time"
)

// TestWorldLifecycleNoGoroutineLeak builds and tears down many small
// worlds back to back on every lamellae and checks that teardown stops
// every goroutine a world started: PE workers, per-PE flushers, the
// watchdog, the reliable wire's retry/drain loops and the transports'
// own readers. A leak here compounds in any process that builds worlds
// repeatedly (benchmark set-up rounds, test suites).
func TestWorldLifecycleNoGoroutineLeak(t *testing.T) {
	const rounds = 20
	kinds := []LamellaeKind{LamellaeSim, LamellaeShmem, LamellaeTCP}
	body := func(w *World) {
		w.Barrier()
		peer := (w.MyPE() + 1) % w.NumPEs()
		if _, err := BlockOn(w, ExecTyped[uint64](w, peer, &echoAM{X: 7})); err != nil {
			panic(err)
		}
		w.Barrier()
	}
	run := func(cfg Config) {
		t.Helper()
		if err := Run(cfg, body); err != nil {
			t.Fatalf("%s world: %v", cfg.Lamellae, err)
		}
	}

	// One warm-up world per lamellae first, so process-lifetime
	// singletons started lazily by the first world (signal handlers,
	// runtime helpers) are part of the baseline, not counted as leaks.
	for _, k := range kinds {
		run(Config{PEs: 2, WorkersPerPE: 1, Lamellae: k})
	}
	run(Config{PEs: 1, WorkersPerPE: 2, Lamellae: LamellaeSMP})
	// Let the warm-up teardown settle before taking the baseline.
	before := stdruntime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(20 * time.Millisecond)
		n := stdruntime.NumGoroutine()
		if n == before {
			break
		}
		before = n
	}

	for _, k := range kinds {
		for i := 0; i < rounds; i++ {
			run(Config{PEs: 2, WorkersPerPE: 1, Lamellae: k})
		}
	}
	run(Config{PEs: 1, WorkersPerPE: 2, Lamellae: LamellaeSMP})

	deadline := time.Now().Add(2 * time.Second)
	after := stdruntime.NumGoroutine()
	for after > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		after = stdruntime.NumGoroutine()
	}
	if after > before {
		buf := make([]byte, 1<<20)
		n := stdruntime.Stack(buf, true)
		t.Fatalf("goroutines: %d before, %d after %d worlds per lamellae; stacks:\n%s",
			before, after, rounds, buf[:n])
	}
}

package main

import (
	"fmt"
	"math/bits"
	"os"
	stdruntime "runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"

	"repro/internal/runtime"
	"repro/internal/telemetry"
)

// Fixed conditions shared by every workload and by the layer ladder: one
// process, two PEs of one worker each over the shmem lamellae, every other
// runtime knob at its default — so the reliable wire, the AM batch queues
// and the array aggregation layer are all in the path.
const (
	worldPEs     = 2
	worldWorkers = 1
	maxProcs     = 4
)

func worldConfig() runtime.Config {
	return runtime.Config{PEs: worldPEs, WorkersPerPE: worldWorkers, Lamellae: runtime.LamellaeShmem}
}

// commit is stamped by run.sh (-ldflags -X); "unknown" outside git.
var commit = "unknown"

// stamp identifies a result: two outputs with equal stamps measured the
// same thing on the same kind of machine.
type stamp struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Traced     bool           `json:"traced"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Go         string         `json:"go"`
	Commit     string         `json:"commit"`
	CPUs       string         `json:"cpus"`
	World      string         `json:"world"`
	Params     map[string]any `json:"params"`
}

// pinConditions clears every LAMELLAR_* variable and pins GOMAXPROCS to
// min(nproc, 4). Some runtime packages read their knobs in init(), before
// main runs, so a process that started with any LAMELLAR_* variable set
// re-executes itself with a clean environment instead of carrying on.
func pinConditions() error {
	var clean []string
	dirty := false
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "LAMELLAR_") {
			dirty = true
			continue
		}
		clean = append(clean, kv)
	}
	if dirty {
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		return syscall.Exec(exe, os.Args, clean)
	}
	stdruntime.GOMAXPROCS(min(stdruntime.NumCPU(), maxProcs))
	return nil
}

// packedOn is the CPU packOnOneCPU confined the process to, or -1.
var packedOn = -1

// packOnOneCPU confines every thread of the process to the first CPU it may
// run on; GOMAXPROCS stays as pinned. It is for a workload that is idle most
// of the time: there the kernel either packs the process's threads onto one
// CPU or spreads them, decides once per process (spread when the run follows
// a CPU-heavy one, packed otherwise), and spread costs 1.6x the CPU per op in
// cross-CPU wake-ups for the same work — README, "Known oddities". Packing is
// what the kernel picks on a quiet box; this makes it the case on every run.
func packOnOneCPU() error {
	allowed, err := affinity()
	if err != nil {
		return err
	}
	cpu := -1
	for i, word := range allowed {
		if word != 0 {
			cpu = i*64 + bits.TrailingZeros64(word)
			break
		}
	}
	if cpu < 0 {
		return fmt.Errorf("sched_getaffinity: empty CPU set")
	}
	var one cpuSet
	one[cpu/64] = 1 << (cpu % 64)
	if err := setAffinity(one); err != nil {
		return err
	}
	packedOn = cpu
	return nil
}

type cpuSet [16]uint64

// affinity is the set of CPUs the calling thread may run on.
func affinity() (set cpuSet, err error) {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set)))
	if errno != 0 {
		return set, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return set, nil
}

// setAffinity gives every thread of the process the same CPU set. A thread
// inherits the set of the thread that starts it, so a second pass catches any
// started during the first by one not yet reached.
func setAffinity(set cpuSet) error {
	for range 2 {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set)))
			if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread has ended
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
			}
		}
	}
	return nil
}

func newStamp(workload string, o options, params map[string]any) stamp {
	cpus := "all the process may run on"
	if packedOn >= 0 {
		cpus = fmt.Sprintf("every thread confined to cpu %d", packedOn)
	}
	return stamp{
		Workload: workload, Seed: o.seed, Seconds: o.seconds, Traced: o.traced,
		NProc: stdruntime.NumCPU(), GOMAXPROCS: stdruntime.GOMAXPROCS(0),
		Go: stdruntime.Version(), Commit: commit, CPUs: cpus,
		World:  "PEs=2 WorkersPerPE=1 Lamellae=shmem, all other knobs default, LAMELLAR_* cleared",
		Params: params,
	}
}

// counters is the subset of World.Stats() the per-layer ratios use, as a
// vector so differences and sums over PEs are loops.
type counters [nCounters]uint64

const (
	cEnvs = iota
	cBatches
	cFlushSize
	cFlushOps
	cFlushDrain
	cFlushTimer
	cAggBatches
	cAggOps
	cAggFlushSize
	cAggFlushOps
	cAggFlushDrain
	cRetx
	cTimeouts
	cDupDropped
	cOOOHeld
	cAcksSent
	cParked
	cFabricMsgs
	cFabricBytes
	cPoolExec
	cPoolStolen
	cPoolParks
	cPoolBusyNs
	nCounters
)

var counterNames = [nCounters]string{
	"envelopes_sent", "batches_sent", "flush_size", "flush_ops", "flush_drain", "flush_timer",
	"agg_batches", "agg_ops", "agg_flush_size", "agg_flush_ops", "agg_flush_drain",
	"wire_retries", "wire_timeouts", "wire_dup_dropped", "wire_ooo_held", "wire_acks_sent", "wire_parked",
	"fabric_msgs", "fabric_bytes", "pool_executed", "pool_stolen", "pool_parks", "pool_busy_ns",
}

func snapshot(w *runtime.World) counters {
	s := w.Stats()
	return counters{
		cEnvs: s.EnvelopesSent, cBatches: s.BatchesSent,
		cFlushSize:  s.BatchFlushReasons[telemetry.FlushSize],
		cFlushOps:   s.BatchFlushReasons[telemetry.FlushOps],
		cFlushDrain: s.BatchFlushReasons[telemetry.FlushDrain],
		cFlushTimer: s.BatchFlushReasons[telemetry.FlushTimer],
		cAggBatches: s.AggBatchesFlushed, cAggOps: s.AggOpsCoalesced,
		cAggFlushSize:  s.AggFlushReasons[telemetry.FlushSize],
		cAggFlushOps:   s.AggFlushReasons[telemetry.FlushOps],
		cAggFlushDrain: s.AggFlushReasons[telemetry.FlushDrain],
		cRetx:          s.WireRetries, cTimeouts: s.WireTimeouts, cDupDropped: s.WireDupDropped,
		cOOOHeld: s.WireOutOfOrder, cAcksSent: s.WireAcksSent, cParked: s.WireParked,
		cFabricMsgs: s.Fabric.Msgs, cFabricBytes: s.Fabric.Bytes,
		cPoolExec: s.PoolExecuted, cPoolStolen: s.PoolStolen, cPoolParks: s.PoolParks,
		cPoolBusyNs: uint64(s.PoolBusy),
	}
}

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c counters) add(o counters) counters {
	for i := range c {
		c[i] += o[i]
	}
	return c
}

func (c counters) named() map[string]uint64 {
	m := make(map[string]uint64, nCounters)
	for i, v := range c {
		m[counterNames[i]] = v
	}
	return m
}

// ratio is a/b, or 0 when the layer did no work in the window.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

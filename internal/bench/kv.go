package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/kv"
	"repro/internal/runtime"
	"repro/internal/telemetry"
)

// KV serving benchmark (ISSUE 10): every PE drives an open-loop Zipfian
// mix of Get/Put/FetchAdd against the sharded store while being a shard
// server itself, on three fabrics — clean, 5% drop/dup/reorder, and a
// mid-run partition-and-heal. Latency is coordinated-omission-safe
// (measured from each request's intended send time), so the reported
// p999 contains the queueing a fault-induced stall imposes, and failed
// ops are counted as SLO violations instead of polluting the tail.

// KVConfig controls the KV serving benchmark.
type KVConfig struct {
	// Keys in the store (default 4096).
	Keys int
	// Requests per driving PE (default 6000).
	Requests int
	// Rate is each PE's offered load in req/s (default 4000).
	Rate float64
	// Skew is the Zipf exponent (default 0.99).
	Skew float64
	// Backend selects the shard array type (default atomic).
	Backend kv.Backend
	// PEs in the world (default 4).
	PEs int
	// WorkersPerPE (default 2).
	Workers int
	// CSV additionally emits CSV.
	CSV bool
}

func (c KVConfig) withDefaults() KVConfig {
	if c.Keys <= 0 {
		c.Keys = 4096
	}
	if c.Requests <= 0 {
		c.Requests = 6000
	}
	if c.Rate == 0 {
		c.Rate = 4000
	}
	if c.Skew == 0 {
		c.Skew = 0.99
	}
	if c.PEs <= 0 {
		c.PEs = 4
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	return c
}

// kvFabric is one row group: a fault plan plus an optional mid-run
// controller (the partition row flips links while traffic is in flight).
type kvFabric struct {
	name string
	plan func() *fabric.FaultPlan
	// control, when set, runs concurrently with the workload: it receives
	// a channel closed when all PEs have started driving and must close
	// the returned-at-construction healed channel once the fabric is
	// repaired (PEs rendezvous only after that).
	control func(plan *fabric.FaultPlan, started <-chan struct{}, healed chan<- struct{})
	// timeout overrides DeliveryTimeout so partitioned ops fail fast
	// enough to show up as SLO violations within the run.
	timeout time.Duration
}

// RunKV produces the KV serving table.
func RunKV(cfg KVConfig, out io.Writer) error {
	cfg = cfg.withDefaults()

	// The partition holds 0↔1 down for several DeliveryTimeouts mid-run,
	// then heals; requests crossing the dead link surface DeliveryErrors
	// (SLO violations) and the post-heal tail shows the repair.
	partitionHold := 500 * time.Millisecond
	partitionAfter := time.Duration(float64(cfg.Requests)/cfg.Rate/4*float64(time.Second)) + 50*time.Millisecond

	fabrics := []kvFabric{
		{name: "clean", plan: func() *fabric.FaultPlan { return fabric.NewFaultPlan(0) }},
		{name: "faulted5", plan: func() *fabric.FaultPlan {
			return fabric.NewFaultPlan(41).SetDefault(fabric.LinkFaults{
				DropRate: 0.05, DupRate: 0.05, ReorderRate: 0.05, Delay: 200 * time.Microsecond})
		}},
		{name: "partition", plan: func() *fabric.FaultPlan { return fabric.NewFaultPlan(9) },
			timeout: 150 * time.Millisecond,
			control: func(plan *fabric.FaultPlan, started <-chan struct{}, healed chan<- struct{}) {
				<-started
				time.Sleep(partitionAfter)
				plan.Partition(0, 1, true)
				time.Sleep(partitionHold)
				plan.Heal(0, 1, true)
				close(healed)
			}},
	}
	table := NewTable("KV serving: open-loop Zipfian mix, per-fabric SLO", "row", "value")
	for _, f := range fabrics {
		row, err := runKVCell(cfg, f)
		if err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		get := row.hists[kv.OpGet].Summary()
		put := row.hists[kv.OpPut].Summary()
		fadd := row.hists[kv.OpFetchAdd].Summary()
		table.Add(f.name, "get_p50_us", us(get.P50))
		table.Add(f.name, "get_p99_us", us(get.P99))
		table.Add(f.name, "get_p999_us", us(get.P999))
		table.Add(f.name, "put_p99_us", us(put.P99))
		table.Add(f.name, "fadd_p99_us", us(fadd.P99))
		table.Add(f.name, "offered_kreq_s", row.offered/1e3)
		table.Add(f.name, "achieved_kreq_s", row.achieved/1e3)
		table.Add(f.name, "slo_violations", float64(row.errors))
		ledger := "ok"
		if len(row.violations) > 0 {
			ledger = "VIOLATED"
		}
		fmt.Fprintf(out, "KV %-20s get p50=%6.0fus p99=%7.0fus p999=%7.0fus  %6.1f/%.1f kreq/s  viol=%-5d ledger=%s\n",
			f.name, us(get.P50), us(get.P99), us(get.P999),
			row.achieved/1e3, row.offered/1e3, row.errors, ledger)
		for _, v := range row.violations {
			fmt.Fprintf(out, "KV %s LEDGER %s\n", f.name, v)
		}
		if len(row.violations) > 0 {
			return fmt.Errorf("%s: %d ledger violations (lost or phantom updates)", f.name, len(row.violations))
		}
		if f.name != "partition" && row.errors > 0 {
			return fmt.Errorf("%s: %d SLO violations on a fabric the reliable layer should repair", f.name, row.errors)
		}
	}
	table.Render(out)
	if cfg.CSV {
		table.RenderCSV(out)
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// kvCell is one fabric's measurement, merged across PEs.
type kvCell struct {
	hists      [kv.NumOpClasses]*telemetry.Histogram
	offered    float64 // aggregate req/s across PEs
	achieved   float64
	errors     uint64
	violations []string
}

func runKVCell(cfg KVConfig, f kvFabric) (*kvCell, error) {
	plan := f.plan()
	rcfg := runtime.Config{
		PEs:           cfg.PEs,
		WorkersPerPE:  cfg.Workers,
		Lamellae:      runtime.LamellaeShmem,
		Faults:        plan,
		RetryInterval: 2 * time.Millisecond,
	}
	if f.timeout > 0 {
		rcfg.DeliveryTimeout = f.timeout
		rcfg.RetryBackoffMax = 10 * time.Millisecond
	}

	var healed chan struct{}
	started := make(chan struct{})
	var startOnce sync.Once
	if f.control != nil {
		healed = make(chan struct{})
		go f.control(plan, started, healed)
	}

	cell := &kvCell{}
	for c := range cell.hists {
		cell.hists[c] = new(telemetry.Histogram)
	}
	var mu sync.Mutex
	results := make([]*kv.Result, cfg.PEs)
	err := runtime.Run(rcfg, func(w *runtime.World) {
		s := kv.New(w.Team(), cfg.Keys, cfg.Backend)
		defer s.Drop()
		w.Barrier()
		startOnce.Do(func() { close(started) })
		res := kv.Run(s, kv.Workload{
			Requests: cfg.Requests,
			Rate:     cfg.Rate,
			Skew:     cfg.Skew,
			Seed:     uint64(0xBA1E0 + w.MyPE()),
			PE:       w.MyPE(),
			NPEs:     w.NumPEs(),
		})
		if healed != nil {
			// PEs must not enter a collective while the partition can
			// outlive DeliveryTimeout — rendezvous on the repaired fabric.
			<-healed
		}
		s.Flush()
		w.WaitAll()
		w.Barrier()
		mu.Lock()
		results[w.MyPE()] = res
		mu.Unlock()
		w.Barrier()
		mu.Lock()
		ledger := kv.MergeLedgers(results)
		mu.Unlock()
		bad := kv.VerifyLocal(s, ledger)
		mu.Lock()
		cell.violations = append(cell.violations, bad...)
		mu.Unlock()
		w.Barrier()
	})
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if r == nil {
			return nil, fmt.Errorf("a PE reported no result")
		}
		for c := range cell.hists {
			cell.hists[c].Merge(r.Hists[c])
		}
		cell.offered += r.Offered
		cell.achieved += r.Achieved
		cell.errors += r.Errors
	}
	return cell, nil
}

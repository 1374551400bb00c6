package bench

import (
	"fmt"
	"io"

	"repro/internal/bale/kernels"
	"repro/internal/fabric"
	"repro/internal/runtime"
)

// Ablations for the design choices the paper discusses in §IV.

// RunAblateAgg sweeps the runtime aggregation threshold (the paper notes
// the 100 KB default and that 512 KB–1 MB fit their system better) using
// the hand-aggregated AM histogram.
func RunAblateAgg(thresholds []int, p kernels.Params, out io.Writer) error {
	if len(thresholds) == 0 {
		thresholds = []int{4 << 10, 16 << 10, 64 << 10, 100_000, 256 << 10, 1 << 20, 4 << 20}
	}
	p = p.WithDefaults()
	table := NewTable("ABL1 aggregation threshold", "agg_bytes", "MUPS")
	const pes = 8
	for _, th := range thresholds {
		rcfg := runtime.Config{
			PEs:               pes,
			WorkersPerPE:      2,
			Lamellae:          runtime.LamellaeSim,
			AggThresholdBytes: th,
			ArrayBatchSize:    p.BufItems,
		}
		win, err := runInstrumented(rcfg, kernels.HistoLamellarAM, p, pes*rcfg.WorkersPerPE)
		if err != nil {
			return err
		}
		table.Add(fmt.Sprintf("%d", th), "lamellar-am", win.RateMPerSec(uint64(p.UpdatesPerPE)*pes))
	}
	table.Render(out)
	return nil
}

// RunAblateBatch sweeps Config.ArrayBatchSize, the op cap of every
// element-op frame and the call size from which batch ops fill private
// frames (the paper caps batches at 10 000 operations), using the
// AtomicArray histogram.
func RunAblateBatch(batches []int, p kernels.Params, out io.Writer) error {
	if len(batches) == 0 {
		batches = []int{100, 500, 1000, 5000, 10_000, 50_000}
	}
	p = p.WithDefaults()
	table := NewTable("ABL2 array frame op cap (ArrayBatchSize)", "batch_ops", "MUPS")
	const pes = 8
	for _, b := range batches {
		pb := p
		pb.BufItems = b
		rcfg := runtime.Config{
			PEs:            pes,
			WorkersPerPE:   2,
			Lamellae:       runtime.LamellaeSim,
			ArrayBatchSize: b,
		}
		win, err := runInstrumented(rcfg, kernels.HistoLamellarArray, pb, pes*rcfg.WorkersPerPE)
		if err != nil {
			return err
		}
		table.Add(fmt.Sprintf("%d", b), "lamellar-array", win.RateMPerSec(uint64(p.UpdatesPerPE)*pes))
	}
	table.Render(out)
	return nil
}

// RunAblatePEs trades PEs against workers per PE at a fixed total core
// count (the paper's PEs-per-node sweep: Lamellar was best at 1 PE per
// NUMA node with 4 threads each).
func RunAblatePEs(totalCores int, p kernels.Params, out io.Writer) error {
	if totalCores <= 0 {
		totalCores = 16
	}
	p = p.WithDefaults()
	table := NewTable("ABL3 PEs vs workers per PE", "pes_x_workers", "MUPS")
	for workers := 1; workers <= totalCores; workers *= 2 {
		pes := totalCores / workers
		if pes < 1 {
			break
		}
		rcfg := runtime.Config{
			PEs:            pes,
			WorkersPerPE:   workers,
			Lamellae:       runtime.LamellaeSim,
			ArrayBatchSize: p.BufItems,
		}
		win, err := runInstrumented(rcfg, kernels.HistoLamellarAM, p, totalCores)
		if err != nil {
			return err
		}
		label := fmt.Sprintf("%dx%d", pes, workers)
		table.Add(label, "lamellar-am", win.RateMPerSec(uint64(p.UpdatesPerPE)*uint64(pes)))
	}
	table.Render(out)
	return nil
}

// runInstrumented runs one kernel under a config with the standard timer;
// cores normalizes the CPU share (total worker threads across PEs).
func runInstrumented(rcfg runtime.Config, fn kernels.KernelFunc, p kernels.Params, cores int) (Window, error) {
	if rcfg.Cost == (fabric.CostModel{}) && rcfg.Lamellae == runtime.LamellaeSim {
		rcfg.Cost = fabric.DefaultCostModel()
	}
	var timer *kernelTimer
	err := runtime.Run(rcfg, func(w *runtime.World) {
		if w.MyPE() == 0 {
			timer = newKernelTimer(w.Provider(), w.NumPEs())
		}
		w.Barrier()
		t := w.PeerWorld(0).SharedExtState("bench.timer", func() any { return timer }).(*kernelTimer)
		if kerr := fn(w, p, t.timing()); kerr != nil {
			panic(kerr)
		}
	})
	if err != nil {
		return Window{}, err
	}
	if timer == nil || timer.stopped < rcfg.PEs {
		return Window{}, fmt.Errorf("bench: kernel timing incomplete")
	}
	win := timer.win
	if cores > 0 {
		win.PEs = cores
	}
	return win, nil
}

// RunAblateRack sweeps the cross-rack gap factor for the Randperm
// Exstack baseline at a fixed core count and reports the *modeled
// network time*, isolating the topology mechanism §IV-B3 suspects behind
// the 2048-core penalty ("two racks for 1024 cores, versus four racks
// for 2048 cores"). At this repository's scaled-down core counts the
// end-to-end time is CPU-bound, so the factor shows in the network
// component rather than the total — see EXPERIMENTS.md.
func RunAblateRack(factors []float64, p kernels.Params, out io.Writer) error {
	if len(factors) == 0 {
		factors = []float64{1.0, 1.3, 1.6, 2.0, 3.0}
	}
	p = p.WithDefaults()
	table := NewTable("ABL4 rack-crossing factor", "rack_factor", "net-ms (modeled)")
	const cores = 32
	for _, f := range factors {
		cost := fabric.DefaultCostModel()
		cost.RackSize = 8
		cost.RackFactor = f
		rcfg := runtime.Config{
			PEs:            cores,
			WorkersPerPE:   1,
			Lamellae:       runtime.LamellaeSim,
			Cost:           cost,
			ArrayBatchSize: p.BufItems,
		}
		win, err := runInstrumented(rcfg, kernels.RPExstack, p, cores)
		if err != nil {
			return err
		}
		table.Add(fmt.Sprintf("%.1f", f), "rp-exstack", float64(win.NetMaxNs)/1e6)
	}
	table.Render(out)
	return nil
}

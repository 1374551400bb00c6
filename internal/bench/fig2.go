package bench

import (
	stdruntime "runtime"
	"runtime/debug"

	"fmt"
	"io"

	"repro/internal/array"
	"repro/internal/fabric"
	"repro/internal/memregion"
	"repro/internal/runtime"
	"repro/internal/serde"
)

// Fig. 2: put-like bandwidth curves over transfer size for every
// communication abstraction in the stack, two PEs on "different nodes"
// (the cost model charges every byte). Series, top to bottom in the
// paper: Rofi(raw fabric), MemRegion, UnsafeArray-unchecked, AM,
// UnsafeArray, LocalLockArray, AtomicArray.

// Fig2Config controls the sweep.
type Fig2Config struct {
	// Sizes in bytes; default 1B..16MB in powers of four.
	Sizes []int
	// TotalBytesPerSize targets this much data per point (paper: 1 GB,
	// scaled down by default).
	TotalBytesPerSize int
	// MaxTransfers caps the per-point transfer count (the paper uses
	// 262143 for small sizes).
	MaxTransfers int
	// CSV additionally emits CSV.
	CSV bool
}

// WithDefaults fills in the scaled-down defaults.
func (c Fig2Config) WithDefaults() Fig2Config {
	if len(c.Sizes) == 0 {
		for s := 1; s <= 16<<20; s *= 4 {
			c.Sizes = append(c.Sizes, s)
		}
	}
	if c.TotalBytesPerSize <= 0 {
		c.TotalBytesPerSize = 32 << 20
	}
	if c.MaxTransfers <= 0 {
		c.MaxTransfers = 16384
	}
	return c
}

// bwAM is the Fig. 2 "AM" series: a Vec<u8> payload whose exec returns
// immediately on the target.
type bwAM struct {
	Data []byte
}

func (a *bwAM) MarshalLamellar(e *serde.Encoder)         { e.PutBytes(a.Data) }
func (a *bwAM) UnmarshalLamellar(d *serde.Decoder) error { a.Data = d.Bytes(); return d.Err() }
func (a *bwAM) Exec(ctx *runtime.Context) any            { return nil }

func init() {
	runtime.RegisterAM[bwAM]("bench.bwAM")
}

// fig2Method is one bandwidth series.
type fig2Method struct {
	name string
	// run executes n transfers of size bytes on PE0 and returns when all
	// transfers are complete (including remote application).
	run func(w *runtime.World, size, n int, buf []uint8)
}

func fig2Methods(maxSize int) []fig2Method {
	return []fig2Method{
		{"rofi", func(w *runtime.World, size, n int, buf []uint8) {
			seg := w.Provider().AllocSegment(maxSize, 0)
			defer w.Provider().FreeSegment(seg)
			for i := 0; i < n; i++ {
				w.Provider().Put(0, 1, seg, 0, buf)
			}
		}},
		{"memregion", func(w *runtime.World, size, n int, buf []uint8) {
			reg := fabric.AllocTyped[uint8](w.Provider(), maxSize)
			sh := memregion.NewShared(w.Provider(), reg, 0)
			for i := 0; i < n; i++ {
				sh.Put(1, 0, buf)
			}
		}},
		{"unsafe-unchecked", func(w *runtime.World, size, n int, buf []uint8) {
			a := array.NewUnsafeArray[uint8](w.Team(), 2*maxSize, array.Block)
			defer a.Drop()
			for i := 0; i < n; i++ {
				a.PutUnchecked(maxSize, buf)
			}
		}},
		{"am", func(w *runtime.World, size, n int, buf []uint8) {
			for i := 0; i < n; i++ {
				w.ExecAM(1, &bwAM{Data: buf})
			}
			w.WaitAll()
		}},
		{"unsafe", func(w *runtime.World, size, n int, buf []uint8) {
			a := array.NewUnsafeArray[uint8](w.Team(), 2*maxSize, array.Block)
			defer a.Drop()
			for i := 0; i < n; i++ {
				a.Put(maxSize, buf)
			}
			w.WaitAll()
		}},
		{"locallock", func(w *runtime.World, size, n int, buf []uint8) {
			a := array.NewLocalLockArray[uint8](w.Team(), 2*maxSize, array.Block)
			defer a.Drop()
			for i := 0; i < n; i++ {
				a.Put(maxSize, buf)
			}
			w.WaitAll()
		}},
		{"atomic", func(w *runtime.World, size, n int, buf []uint8) {
			a := array.NewAtomicArray[uint8](w.Team(), 2*maxSize, array.Block)
			defer a.Drop()
			for i := 0; i < n; i++ {
				a.Put(maxSize, buf)
			}
			w.WaitAll()
		}},
	}
}

// RunFig2 produces the bandwidth table.
func RunFig2(cfg Fig2Config, out io.Writer) error {
	cfg = cfg.WithDefaults()
	maxSize := 0
	for _, s := range cfg.Sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	table := NewTable("FIG2 put-like bandwidth", "size_bytes", "MB/s")
	theoretical := fabric.DefaultCostModel().BandwidthBytesPerNs * 1e9 / 1e6
	fmt.Fprintf(out, "FIG2: theoretical network peak %.0f MB/s\n", theoretical)

	for _, m := range fig2Methods(maxSize) {
		m := m
		rcfg := runtime.Config{
			PEs:          2,
			WorkersPerPE: 4,
			Lamellae:     runtime.LamellaeSim,
			StagingBytes: 4 * maxSize,
		}
		var results []struct {
			size int
			mbs  float64
		}
		err := runtime.Run(rcfg, func(w *runtime.World) {
			for _, size := range cfg.Sizes {
				n := cfg.TotalBytesPerSize / size
				if n > cfg.MaxTransfers {
					n = cfg.MaxTransfers
				}
				if n < 2 {
					n = 2
				}
				w.Barrier()
				if w.MyPE() == 0 {
					buf := make([]uint8, size)
					for i := range buf {
						buf[i] = uint8(i)
					}
					// best-of-3 samples with a GC before each so setup
					// garbage does not land inside a window
					best := 0.0
					for rep := 0; rep < 3; rep++ {
						stdruntime.GC()
						start := Take(w.Provider())
						m.run(w, size, n, buf)
						w.Barrier()
						win := Since(w.Provider(), start)
						if mbs := win.BandwidthMBs(uint64(n * size)); mbs > best {
							best = mbs
						}
						w.Barrier()
					}
					results = append(results, struct {
						size int
						mbs  float64
					}{size, best})
				} else {
					// PE1 serves AMs through its pool and joins barriers;
					// array constructions inside m.run are collective, so
					// PE1 must run the same constructors once per sample
					// (n=0 transfers) and match PE0's barrier pattern.
					buf := []uint8{}
					for rep := 0; rep < 3; rep++ {
						m.run(w, size, 0, buf)
						w.Barrier()
						w.Barrier()
					}
				}
				w.Barrier()
			}
		})
		if err != nil {
			return err
		}
		for _, r := range results {
			table.Add(fmt.Sprintf("%d", r.size), m.name, r.mbs)
		}
	}
	table.Render(out)
	if cfg.CSV {
		table.RenderCSV(out)
	}
	return nil
}

// RunFig2Agg produces the aggregated element-op bandwidth table: each
// transfer is one BatchOpVals(OpStore) call over `size/8` contiguous
// uint64 elements of the remote PE's half, fired without awaiting so the
// array-op aggregation layer coalesces calls into per-destination
// frames (WaitAll drains at the end of each sample). The seed FIG2
// `atomic` curve (per-element stores via Put) is the pre-aggregation
// baseline.
func RunFig2Agg(cfg Fig2Config, out io.Writer) error {
	if len(cfg.Sizes) == 0 {
		// uint64 ops: start at two elements, sweep to 16 MiB batches,
		// covering every seed-table 64 KiB+ row for direct comparison.
		for s := 16; s <= 16<<20; s *= 4 {
			cfg.Sizes = append(cfg.Sizes, s)
		}
	}
	if cfg.TotalBytesPerSize <= 0 {
		cfg.TotalBytesPerSize = 16 << 20
	}
	if cfg.MaxTransfers <= 0 {
		cfg.MaxTransfers = 4096
	}
	maxSize := 0
	for _, s := range cfg.Sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	maxElems := maxSize / 8

	// The metric charges process-wide CPU, and the top sizes allocate
	// tens of MB per transfer (receive buffers, over-cap encoders), so
	// GC assists inside a timed rep would show up as lost bandwidth.
	// Relax the pacer for the sweep; the explicit GC between reps keeps
	// the heap bounded.
	oldGC := debug.SetGCPercent(800)
	defer debug.SetGCPercent(oldGC)

	methods := []struct {
		name string
		kind string
	}{
		{"atomic-agg", "atomic"},
		{"locallock-agg", "locallock"},
		{"unsafe-agg", "unsafe"},
	}
	table := NewTable("FIG2-AGG aggregated element-op bandwidth", "size_bytes", "MB/s")
	for _, m := range methods {
		m := m
		rcfg := runtime.Config{
			PEs:          2,
			WorkersPerPE: 4,
			Lamellae:     runtime.LamellaeSim,
			// Generous staging so the largest aggregated payload still fits
			// in one fragment (the sim fragments at a quarter of the heap);
			// reassembly would add a full extra copy pass at the top sizes.
			StagingBytes: 8*maxSize + (1 << 20),
		}
		var results []struct {
			size int
			mbs  float64
		}
		err := runtime.Run(rcfg, func(w *runtime.World) {
			// Collective construction: both PEs build the same array, then
			// PE0 stores into PE1's half.
			var batch func(idxs []int, vals []uint64)
			var drop func()
			switch m.kind {
			case "atomic":
				a := array.NewAtomicArray[uint64](w.Team(), 2*maxElems, array.Block)
				batch = func(idxs []int, vals []uint64) { a.BatchOpVals(array.OpStore, idxs, vals) }
				drop = a.Drop
			case "locallock":
				a := array.NewLocalLockArray[uint64](w.Team(), 2*maxElems, array.Block)
				batch = func(idxs []int, vals []uint64) { a.BatchOpVals(array.OpStore, idxs, vals) }
				drop = a.Drop
			case "unsafe":
				a := array.NewUnsafeArray[uint64](w.Team(), 2*maxElems, array.Block)
				batch = func(idxs []int, vals []uint64) { a.BatchOpVals(array.OpStore, idxs, vals) }
				drop = a.Drop
			}
			defer drop()
			for _, size := range cfg.Sizes {
				elems := size / 8
				n := cfg.TotalBytesPerSize / size
				if n > cfg.MaxTransfers {
					n = cfg.MaxTransfers
				}
				if n < 2 {
					n = 2
				}
				w.Barrier()
				if w.MyPE() == 0 {
					idxs := make([]int, elems)
					vals := make([]uint64, elems)
					for i := range idxs {
						idxs[i] = maxElems + i
						vals[i] = uint64(i)
					}
					best := 0.0
					for rep := 0; rep < 5; rep++ {
						stdruntime.GC()
						start := Take(w.Provider())
						for i := 0; i < n; i++ {
							batch(idxs, vals)
						}
						w.WaitAll()
						w.Barrier()
						win := Since(w.Provider(), start)
						if mbs := win.BandwidthMBs(uint64(n * size)); mbs > best {
							best = mbs
						}
						w.Barrier()
					}
					results = append(results, struct {
						size int
						mbs  float64
					}{size, best})
				} else {
					for rep := 0; rep < 5; rep++ {
						w.Barrier()
						w.Barrier()
					}
				}
				w.Barrier()
			}
		})
		if err != nil {
			return err
		}
		for _, r := range results {
			table.Add(fmt.Sprintf("%d", r.size), m.name, r.mbs)
		}
	}
	table.Render(out)
	if cfg.CSV {
		table.RenderCSV(out)
	}
	return nil
}

// RunFig2Get produces get-direction bandwidth curves. The paper omits
// them ("Lamellar get transfers follow the same trends as put") — this
// extension experiment verifies that claim on the reproduction.
func RunFig2Get(cfg Fig2Config, out io.Writer) error {
	cfg = cfg.WithDefaults()
	maxSize := 0
	for _, s := range cfg.Sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	methods := []fig2Method{
		{"rofi-get", func(w *runtime.World, size, n int, buf []uint8) {
			seg := w.Provider().AllocSegment(maxSize, 0)
			defer w.Provider().FreeSegment(seg)
			for i := 0; i < n; i++ {
				w.Provider().Get(0, 1, seg, 0, buf)
			}
		}},
		{"memregion-get", func(w *runtime.World, size, n int, buf []uint8) {
			reg := fabric.AllocTyped[uint8](w.Provider(), maxSize)
			sh := memregion.NewShared(w.Provider(), reg, 0)
			for i := 0; i < n; i++ {
				sh.Get(1, 0, buf)
			}
		}},
		{"readonly-direct", func(w *runtime.World, size, n int, buf []uint8) {
			ua := array.NewUnsafeArray[uint8](w.Team(), 2*maxSize, array.Block)
			a := ua.IntoReadOnly()
			defer a.Drop()
			for i := 0; i < n; i++ {
				a.GetDirect(maxSize, size)
			}
		}},
		{"unsafe-get", func(w *runtime.World, size, n int, buf []uint8) {
			a := array.NewUnsafeArray[uint8](w.Team(), 2*maxSize, array.Block)
			defer a.Drop()
			for i := 0; i < n; i++ {
				a.Get(maxSize, size)
			}
			w.WaitAll()
		}},
		{"atomic-get", func(w *runtime.World, size, n int, buf []uint8) {
			a := array.NewAtomicArray[uint8](w.Team(), 2*maxSize, array.Block)
			defer a.Drop()
			for i := 0; i < n; i++ {
				a.Get(maxSize, size)
			}
			w.WaitAll()
		}},
	}
	table := NewTable("FIG2-GET get-like bandwidth (extension)", "size_bytes", "MB/s")
	for _, m := range methods {
		m := m
		rcfg := runtime.Config{
			PEs:          2,
			WorkersPerPE: 4,
			Lamellae:     runtime.LamellaeSim,
			StagingBytes: 4 * maxSize,
		}
		var results []struct {
			size int
			mbs  float64
		}
		err := runtime.Run(rcfg, func(w *runtime.World) {
			for _, size := range cfg.Sizes {
				n := cfg.TotalBytesPerSize / size
				if n > cfg.MaxTransfers {
					n = cfg.MaxTransfers
				}
				if n < 2 {
					n = 2
				}
				w.Barrier()
				if w.MyPE() == 0 {
					buf := make([]uint8, size)
					best := 0.0
					for rep := 0; rep < 3; rep++ {
						stdruntime.GC()
						start := Take(w.Provider())
						m.run(w, size, n, buf)
						w.Barrier()
						win := Since(w.Provider(), start)
						if mbs := win.BandwidthMBs(uint64(n * size)); mbs > best {
							best = mbs
						}
						w.Barrier()
					}
					results = append(results, struct {
						size int
						mbs  float64
					}{size, best})
				} else {
					buf := []uint8{}
					for rep := 0; rep < 3; rep++ {
						m.run(w, size, 0, buf)
						w.Barrier()
						w.Barrier()
					}
				}
				w.Barrier()
			}
		})
		if err != nil {
			return err
		}
		for _, r := range results {
			table.Add(fmt.Sprintf("%d", r.size), m.name, r.mbs)
		}
	}
	table.Render(out)
	if cfg.CSV {
		table.RenderCSV(out)
	}
	return nil
}

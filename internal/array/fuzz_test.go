package array

import (
	"testing"

	"repro/internal/runtime"
	"repro/internal/serde"
)

// encodeFrame is the wire form of one aggAM, as a fuzz seed.
func encodeFrame[T serde.Number](am aggAM[T]) []byte {
	e := serde.NewEncoder(256)
	am.MarshalLamellar(e)
	return e.Bytes()
}

// frameApplier decodes arbitrary bytes as an aggAM[T] and applies the
// frame to st's only rank; a frame that does not decode is skipped.
func frameApplier[T serde.Number](st *sharedState[T]) func([]byte) {
	return func(data []byte) {
		var am aggAM[T]
		if am.UnmarshalLamellar(serde.NewDecoder(data)) != nil {
			return
		}
		_, _ = st.applyAggBatch(0, 0, am.Ops, am.Starts, am.Counts, am.Vals, am.CasOld)
	}
}

// FuzzAggAMApply feeds arbitrary bytes through the element-op frame
// decoder and receive kernel of a small array of every kind, plus a
// float array on the per-element spinlock path. Neither may panic: a
// malformed frame must come back as an error.
func FuzzAggAMApply(f *testing.F) {
	f.Add(encodeFrame(aggAM[uint64]{
		Ops:    []uint8{uint8(OpAdd) | entryBroadcast, uint8(OpLoad) | entryFetch, uint8(OpCAS) | entryFetch},
		Starts: []int64{0, 2, 5},
		Counts: []int64{4, 3, 2},
		Vals:   []uint64{7, 1, 2},
		CasOld: []uint64{0, 0},
	}))
	f.Add(encodeFrame(aggAM[uint64]{
		WantOut: true,
		Ops:     []uint8{uint8(OpStore), uint8(OpSwap) | entryFetch, uint8(OpDiv) | entryBroadcast},
		Starts:  []int64{0, 3, 1},
		Counts:  []int64{3, 2, 5},
		Vals:    []uint64{9, 8, 7, 6, 5, 3},
	}))
	f.Add(encodeFrame(aggAM[float64]{
		Ops:    []uint8{uint8(OpMul) | entryBroadcast, uint8(OpXor) | entryBroadcast},
		Starts: []int64{1, 0},
		Counts: []int64{6, 1},
		Vals:   []float64{1.5, 2},
	}))
	f.Add([]byte{})
	// A Starts length prefix of 2^61+1 eight-byte elements.
	f.Add([]byte{1, 0, 0, 0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 0, 0, 0, 0, 0, 0, 0, 0, 0})

	const glen = 8
	ready := make(chan []func([]byte))
	release := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- runtime.Run(runtime.Config{PEs: 1, WorkersPerPE: 1, Lamellae: runtime.LamellaeSMP}, func(w *runtime.World) {
			u := NewUnsafeArray[uint64](w.Team(), glen, Block)
			ro := NewReadOnlyArray[uint64](w.Team(), glen, Block)
			at := NewAtomicArray[uint64](w.Team(), glen, Block)
			ll := NewLocalLockArray[uint64](w.Team(), glen, Block)
			fl := NewAtomicArray[float64](w.Team(), glen, Block)
			ready <- []func([]byte){
				frameApplier(u.c.st), frameApplier(ro.c.st), frameApplier(at.c.st),
				frameApplier(ll.c.st), frameApplier(fl.c.st),
			}
			<-release
			u.Drop()
			ro.Drop()
			at.Drop()
			ll.Drop()
			fl.Drop()
		})
	}()
	appliers := <-ready
	f.Cleanup(func() {
		close(release)
		if err := <-errc; err != nil {
			f.Error(err)
		}
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, apply := range appliers {
			apply(data)
		}
	})
}

// checkFrame must refuse every malformed shape the fuzzer can reach,
// before a single element changes.
func TestAggFrameRejectsMalformed(t *testing.T) {
	add := uint8(OpAdd)
	cases := []struct {
		name   string
		ops    []uint8
		starts []int64
		counts []int64
		vals   []uint64
		cas    []uint64
	}{
		{"short starts", []uint8{add}, nil, []int64{1}, []uint64{1}, nil},
		{"unknown op", []uint8{uint8(OpCAS) + 1}, []int64{0}, []int64{1}, []uint64{1}, nil},
		{"unknown flag", []uint8{add | 0x80}, []int64{0}, []int64{1}, []uint64{1}, nil},
		{"load without fetch", []uint8{uint8(OpLoad)}, []int64{0}, []int64{1}, nil, nil},
		{"past the end", []uint8{add}, []int64{6}, []int64{3}, []uint64{1, 2, 3}, nil},
		{"negative start", []uint8{add}, []int64{-1}, []int64{1}, []uint64{1}, nil},
		{"short values", []uint8{add}, []int64{0}, []int64{3}, []uint64{1, 2}, nil},
		{"extra values", []uint8{add | entryBroadcast}, []int64{0}, []int64{3}, []uint64{1, 2}, nil},
		{"short CAS operands", []uint8{uint8(OpCAS)}, []int64{0}, []int64{2}, []uint64{1, 2}, []uint64{1}},
		{"divide by zero", []uint8{uint8(OpDiv)}, []int64{0}, []int64{2}, []uint64{1, 0}, nil},
	}
	err := runtime.Run(runtime.Config{PEs: 1, WorkersPerPE: 1, Lamellae: runtime.LamellaeSMP}, func(w *runtime.World) {
		a := NewUnsafeArray[uint64](w.Team(), 8, Block)
		defer a.Drop()
		for _, c := range cases {
			if _, err := a.c.st.applyAggBatch(0, 0, c.ops, c.starts, c.counts, c.vals, c.cas); err == nil {
				t.Errorf("%s: frame accepted", c.name)
			}
		}
		for k, v := range a.LocalData() {
			if v != 0 {
				t.Errorf("elem %d = %d after rejected frames, want 0", k, v)
			}
		}
		fl := NewAtomicArray[float64](w.Team(), 8, Block)
		defer fl.Drop()
		if _, err := fl.c.st.applyAggBatch(0, 0, []uint8{uint8(OpRem) | entryBroadcast},
			[]int64{0}, []int64{1}, []float64{2}, nil); err == nil {
			t.Error("remainder on a float array accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

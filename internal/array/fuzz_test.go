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
		_, _ = st.applyAggBatch(0, 0, &am)
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
		Flags:  frameWantOut,
		Ops:    []uint8{uint8(OpStore), uint8(OpSwap) | entryFetch, uint8(OpDiv) | entryBroadcast},
		Starts: []int64{0, 3, 1},
		Counts: []int64{3, 2, 5},
		Vals:   []uint64{9, 8, 7, 6, 5, 3},
	}))
	f.Add(encodeFrame(aggAM[uint64]{
		Flags: frameScatter,
		Ops:   []uint8{}, Starts: []int64{}, Counts: []int64{},
		SOp: uint8(OpAdd), SOffs: []uint32{7, 0, 3, 3}, SVals: []uint64{1},
	}))
	f.Add(encodeFrame(aggAM[uint64]{
		Flags:  frameWantOut | frameScatter,
		Ops:    []uint8{uint8(OpStore)},
		Starts: []int64{2},
		Counts: []int64{2},
		Vals:   []uint64{4, 5},
		SOp:    uint8(OpSwap) | entryFetch, SOffs: []uint32{1, 6, 1}, SVals: []uint64{9, 8, 7},
	}))
	f.Add(encodeFrame(aggAM[uint64]{
		Flags: frameWantOut | frameScatter,
		SOp:   uint8(OpLoad) | entryFetch, SOffs: []uint32{5, 2, 0},
	}))
	for _, c := range malformedFrames() {
		f.Add(encodeFrame(c.am))
	}
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

// malformedFrames lists frames that checkFrame must refuse on an 8-element
// uint64 UnsafeArray on one PE. Each scatter case also carries a valid
// run entry, so a frame that applied part-way would show in the data.
func malformedFrames() []struct {
	name string
	am   aggAM[uint64]
} {
	add := uint8(OpAdd)
	run := func(am aggAM[uint64]) aggAM[uint64] {
		am.Flags |= frameScatter
		am.Ops = []uint8{add | entryBroadcast}
		am.Starts, am.Counts, am.Vals = []int64{0}, []int64{8}, []uint64{1}
		return am
	}
	return []struct {
		name string
		am   aggAM[uint64]
	}{
		{"short starts", aggAM[uint64]{Ops: []uint8{add}, Counts: []int64{1}, Vals: []uint64{1}}},
		{"unknown op", aggAM[uint64]{Ops: []uint8{uint8(OpCAS) + 1}, Starts: []int64{0}, Counts: []int64{1}, Vals: []uint64{1}}},
		{"unknown flag", aggAM[uint64]{Ops: []uint8{add | 0x80}, Starts: []int64{0}, Counts: []int64{1}, Vals: []uint64{1}}},
		{"load without fetch", aggAM[uint64]{Ops: []uint8{uint8(OpLoad)}, Starts: []int64{0}, Counts: []int64{1}}},
		{"past the end", aggAM[uint64]{Ops: []uint8{add}, Starts: []int64{6}, Counts: []int64{3}, Vals: []uint64{1, 2, 3}}},
		{"negative start", aggAM[uint64]{Ops: []uint8{add}, Starts: []int64{-1}, Counts: []int64{1}, Vals: []uint64{1}}},
		{"short values", aggAM[uint64]{Ops: []uint8{add}, Starts: []int64{0}, Counts: []int64{3}, Vals: []uint64{1, 2}}},
		{"extra values", aggAM[uint64]{Ops: []uint8{add | entryBroadcast}, Starts: []int64{0}, Counts: []int64{3}, Vals: []uint64{1, 2}}},
		{"short CAS operands", aggAM[uint64]{Ops: []uint8{uint8(OpCAS)}, Starts: []int64{0}, Counts: []int64{2}, Vals: []uint64{1, 2}, CasOld: []uint64{1}}},
		{"divide by zero", aggAM[uint64]{Ops: []uint8{uint8(OpDiv)}, Starts: []int64{0}, Counts: []int64{2}, Vals: []uint64{1, 0}}},
		{"unknown frame flag", aggAM[uint64]{Flags: 0x04, Ops: []uint8{add}, Starts: []int64{0}, Counts: []int64{1}, Vals: []uint64{1}}},
		{"scatter offset at the local length", run(aggAM[uint64]{SOp: add, SOffs: []uint32{0, 8}, SVals: []uint64{1}})},
		{"scatter offset all ones", run(aggAM[uint64]{SOp: add, SOffs: []uint32{0xFFFFFFFF}, SVals: []uint64{1}})},
		{"scatter short values", run(aggAM[uint64]{SOp: add, SOffs: []uint32{0, 1, 2}, SVals: []uint64{1, 2}})},
		{"scatter extra values", run(aggAM[uint64]{SOp: add, SOffs: []uint32{0, 1}, SVals: []uint64{1, 2, 3}})},
		{"scatter add without values", run(aggAM[uint64]{SOp: add, SOffs: []uint32{0, 1}})},
		{"scatter load with values", run(aggAM[uint64]{Flags: frameWantOut, SOp: uint8(OpLoad) | entryFetch, SOffs: []uint32{0}, SVals: []uint64{1}})},
		{"scatter load without fetch", run(aggAM[uint64]{SOp: uint8(OpLoad), SOffs: []uint32{0}})},
		{"scatter CAS", run(aggAM[uint64]{Flags: frameWantOut, SOp: uint8(OpCAS) | entryFetch, SOffs: []uint32{0}, SVals: []uint64{1}})},
		{"scatter unknown op", run(aggAM[uint64]{SOp: uint8(OpCAS) + 1, SOffs: []uint32{0}, SVals: []uint64{1}})},
		{"scatter broadcast bit", run(aggAM[uint64]{SOp: add | entryBroadcast, SOffs: []uint32{0}, SVals: []uint64{1}})},
		{"scatter unknown op bit", run(aggAM[uint64]{SOp: add | 0x80, SOffs: []uint32{0}, SVals: []uint64{1}})},
		{"scatter divide by zero", run(aggAM[uint64]{SOp: uint8(OpDiv), SOffs: []uint32{0, 1}, SVals: []uint64{1, 0}})},
		{"scatter remainder by zero", run(aggAM[uint64]{SOp: uint8(OpRem), SOffs: []uint32{0, 1}, SVals: []uint64{0}})},
	}
}

// checkFrame must refuse every malformed shape the fuzzer can reach,
// before a single element changes.
func TestAggFrameRejectsMalformed(t *testing.T) {
	err := runtime.Run(runtime.Config{PEs: 1, WorkersPerPE: 1, Lamellae: runtime.LamellaeSMP}, func(w *runtime.World) {
		a := NewUnsafeArray[uint64](w.Team(), 8, Block)
		defer a.Drop()
		for _, c := range malformedFrames() {
			if _, err := a.c.st.applyAggBatch(0, 0, &c.am); err == nil {
				t.Errorf("%s: frame accepted", c.name)
			}
		}
		for k, v := range a.LocalData() {
			if v != 0 {
				t.Errorf("elem %d = %d after rejected frames, want 0", k, v)
			}
		}
		ro := NewReadOnlyArray[uint64](w.Team(), 8, Block)
		defer ro.Drop()
		for name, am := range map[string]aggAM[uint64]{
			"run store":   {Ops: []uint8{uint8(OpStore) | entryBroadcast}, Starts: []int64{0}, Counts: []int64{2}, Vals: []uint64{1}},
			"scatter add": {Flags: frameScatter, SOp: uint8(OpAdd), SOffs: []uint32{1}, SVals: []uint64{1}},
		} {
			if _, err := ro.c.st.applyAggBatch(0, 0, &am); err == nil {
				t.Errorf("ReadOnlyArray %s accepted", name)
			}
		}
		fl := NewAtomicArray[float64](w.Team(), 8, Block)
		defer fl.Drop()
		for name, am := range map[string]aggAM[float64]{
			"run remainder":     {Ops: []uint8{uint8(OpRem) | entryBroadcast}, Starts: []int64{0}, Counts: []int64{1}, Vals: []float64{2}},
			"scatter remainder": {Flags: frameScatter, SOp: uint8(OpRem), SOffs: []uint32{1}, SVals: []float64{2}},
			"scatter xor":       {Flags: frameScatter, SOp: uint8(OpXor), SOffs: []uint32{1, 2}, SVals: []float64{2, 3}},
		} {
			if _, err := fl.c.st.applyAggBatch(0, 0, &am); err == nil {
				t.Errorf("float array %s accepted", name)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

package array

import (
	"testing"
	"testing/quick"
)

func TestBlockPlacement(t *testing.T) {
	g := newGeometry(Block, 10, 3)
	// 10 over 3 PEs: rank0 gets 4, ranks 1-2 get 3
	wantLens := []int{4, 3, 3}
	for r, want := range wantLens {
		if got := g.localLen(r); got != want {
			t.Errorf("localLen(%d) = %d, want %d", r, got, want)
		}
	}
	if g.maxLocalLen() != 4 {
		t.Errorf("maxLocalLen = %d", g.maxLocalLen())
	}
	wantRanks := []int{0, 0, 0, 0, 1, 1, 1, 2, 2, 2}
	for i, want := range wantRanks {
		rank, _ := g.place(i)
		if rank != want {
			t.Errorf("place(%d) rank = %d, want %d", i, rank, want)
		}
	}
}

func TestCyclicPlacement(t *testing.T) {
	g := newGeometry(Cyclic, 7, 3)
	wantLens := []int{3, 2, 2}
	for r, want := range wantLens {
		if got := g.localLen(r); got != want {
			t.Errorf("localLen(%d) = %d, want %d", r, got, want)
		}
	}
	for i := 0; i < 7; i++ {
		rank, local := g.place(i)
		if rank != i%3 || local != i/3 {
			t.Errorf("place(%d) = (%d,%d)", i, rank, local)
		}
	}
}

// Property: place and globalOf are inverse bijections covering exactly the
// local lengths, for both layouts and arbitrary shapes.
func TestPlacementBijectionProperty(t *testing.T) {
	check := func(dist Distribution, glen16, npes8 uint8) bool {
		glen := int(glen16)
		npes := int(npes8)%16 + 1
		g := newGeometry(dist, glen, npes)
		seen := make(map[[2]int]bool)
		sumLens := 0
		for r := 0; r < npes; r++ {
			sumLens += g.localLen(r)
		}
		if sumLens != glen {
			t.Errorf("%v glen=%d npes=%d: localLens sum to %d", dist, glen, npes, sumLens)
			return false
		}
		for i := 0; i < glen; i++ {
			rank, local := g.place(i)
			if rank < 0 || rank >= npes || local < 0 || local >= g.localLen(rank) {
				t.Errorf("%v: place(%d) = (%d,%d) out of range", dist, i, rank, local)
				return false
			}
			if g.globalOf(rank, local) != i {
				t.Errorf("%v: globalOf(place(%d)) = %d", dist, i, g.globalOf(rank, local))
				return false
			}
			key := [2]int{rank, local}
			if seen[key] {
				t.Errorf("%v: duplicate placement (%d,%d)", dist, rank, local)
				return false
			}
			seen[key] = true
		}
		return true
	}
	if err := quick.Check(func(a, b uint8) bool { return check(Block, a, b) }, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(a, b uint8) bool { return check(Cyclic, a, b) }, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockRangesCoverage(t *testing.T) {
	for _, dist := range []Distribution{Block, Cyclic} {
		g := newGeometry(dist, 23, 4)
		covered := make([]bool, 23)
		g.blockRanges(3, 17, func(rank, local, gIdx, runLen int) {
			for k := 0; k < runLen; k++ {
				if covered[gIdx+k] {
					t.Fatalf("%v: index %d covered twice", dist, gIdx+k)
				}
				covered[gIdx+k] = true
				wantRank, wantLocal := g.place(gIdx + k)
				if rank != wantRank || local+k != wantLocal {
					t.Fatalf("%v: run mismatch at %d", dist, gIdx+k)
				}
			}
		})
		for i := 3; i < 20; i++ {
			if !covered[i] {
				t.Errorf("%v: index %d not covered", dist, i)
			}
		}
		if covered[2] || covered[20] {
			t.Errorf("%v: out-of-range coverage", dist)
		}
	}
}

func TestPlaceOutOfRangePanics(t *testing.T) {
	g := newGeometry(Block, 5, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.place(5)
}

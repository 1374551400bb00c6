// Package array implements the LamellarArray layer (§III-F): safe PGAS
// distributed arrays with four access-safety kinds (Unsafe, ReadOnly,
// Atomic, LocalLock), Block/Cyclic layouts, element-wise and batched
// operations, RDMA-like put/get, distributed/local/one-sided iterators,
// reductions, sub-arrays, and kind conversions guarded by the
// single-reference rule. Remote access on safe kinds is mediated by
// owner-side active messages, exactly as the paper describes.
package array

import "fmt"

// Distribution selects the data layout across the team's PEs.
type Distribution int

// Layouts supported by LamellarArrays.
const (
	// Block gives each PE one contiguous chunk (remainder spread over the
	// first PEs, one extra element each).
	Block Distribution = iota
	// Cyclic deals elements round-robin across PEs.
	Cyclic
)

func (d Distribution) String() string {
	switch d {
	case Block:
		return "Block"
	case Cyclic:
		return "Cyclic"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// geometry maps global indices to (team rank, local index) and back for a
// given distribution, global length, and team size.
type geometry struct {
	dist Distribution
	glen int
	npes int
	// Both layouts give the first r ranks q+1 elements and the rest q
	// (q, r = glen/npes, glen%npes); under Block, cut = r·(q+1) is the
	// first index past those longer blocks. They are computed once by
	// newGeometry, so placing an index divides only by its block size.
	q, r, cut int
}

// newGeometry returns the geometry of a glen-element array over npes ranks.
func newGeometry(dist Distribution, glen, npes int) geometry {
	q, r := glen/npes, glen%npes
	return geometry{dist: dist, glen: glen, npes: npes, q: q, r: r, cut: r * (q + 1)}
}

// place returns the owning team rank and local index of global index i.
func (g *geometry) place(i int) (rank, local int) {
	if i < 0 || i >= g.glen {
		panic(fmt.Sprintf("array: index %d out of range [0,%d)", i, g.glen))
	}
	switch g.dist {
	case Block:
		if i < g.cut {
			return i / (g.q + 1), i % (g.q + 1)
		}
		i -= g.cut
		return g.r + i/g.q, i % g.q
	case Cyclic:
		return i % g.npes, i / g.npes
	default:
		panic("array: unknown distribution")
	}
}

// globalOf is the inverse of place.
func (g *geometry) globalOf(rank, local int) int {
	switch g.dist {
	case Block:
		if rank < g.r {
			return rank*(g.q+1) + local
		}
		return g.cut + (rank-g.r)*g.q + local
	case Cyclic:
		return local*g.npes + rank
	default:
		panic("array: unknown distribution")
	}
}

// localLen returns the number of elements rank owns.
func (g *geometry) localLen(rank int) int {
	if rank < g.r {
		return g.q + 1
	}
	return g.q
}

// maxLocalLen returns the largest per-rank length (symmetric allocation).
func (g *geometry) maxLocalLen() int {
	if g.glen == 0 {
		return 0
	}
	return g.localLen(0) // rank 0 always holds the maximum in both layouts
}

// blockRanges yields maximal runs of consecutive global indices owned by a
// single rank, for range-based transfers: fn(rank, localStart, gStart, n).
func (g *geometry) blockRanges(gStart, n int, fn func(rank, local, gIdx, runLen int)) {
	if n == 0 {
		return
	}
	if gStart < 0 || gStart+n > g.glen {
		panic(fmt.Sprintf("array: range [%d,%d) out of bounds [0,%d)", gStart, gStart+n, g.glen))
	}
	switch g.dist {
	case Block:
		i := gStart
		for i < gStart+n {
			rank, local := g.place(i)
			run := g.localLen(rank) - local
			if rem := gStart + n - i; run > rem {
				run = rem
			}
			fn(rank, local, i, run)
			i += run
		}
	case Cyclic:
		// runs of length 1 (each consecutive index changes rank)
		for i := gStart; i < gStart+n; i++ {
			rank, local := g.place(i)
			fn(rank, local, i, 1)
		}
	}
}

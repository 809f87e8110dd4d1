package triangle

import (
	"math"
	"math/bits"
	"slices"

	"kmachine/internal/graph"
)

// edgeIndex is the local-enumeration kernel every machine of this
// package walks: the distinct endpoints of the edges a machine received,
// relabelled 0..V-1 in ID order with each vertex's color hashed once,
// and the CSR of their neighbour rows. It is immutable once built and
// holds O(edges received) memory — nothing is sized by the graph's n.
//
// A forward index keeps, for every vertex, only its higher neighbours;
// a symmetric one (open triads need the lower neighbours too) keeps
// both directions. Either way a row is a contiguous ascending slice of
// vertex indices, and index order is ID order, so walks compare indices
// and translate to IDs only when they emit.
type edgeIndex struct {
	ids   []int32 // distinct endpoint IDs (non-negative), ascending
	color []int32 // color[i] is the color class of ids[i]
	off   []int32 // row i is nbr[off[i]:off[i+1]]
	nbr   []int32 // neighbour indices, ascending within a row
}

// newEdgeIndex builds the index of an edge multiset. Self-loops and
// duplicates (in either orientation) are dropped. Each edge is oriented
// lo < hi and packed into one uint64, so the sort is a radix sort over
// plain words: no comparator, no reflection, no per-row slices.
func newEdgeIndex(edges [][2]int32, symmetric bool, seed uint64, c int) *edgeIndex {
	n := len(edges)
	if symmetric {
		n *= 2
	}
	keys := make([]uint64, 0, n)
	var maxID int32
	for _, e := range edges {
		lo, hi := e[0], e[1]
		if lo == hi {
			continue
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		maxID = max(maxID, hi)
		keys = append(keys, uint64(lo)<<32|uint64(hi))
		if symmetric {
			keys = append(keys, uint64(hi)<<32|uint64(lo))
		}
	}
	// LSD radix over only the bytes the largest ID needs. After the low
	// word's passes the keys are ordered by neighbour, so one scan swaps
	// every neighbour ID for its rank among the distinct neighbours (order
	// preserved, nothing searched); the high word's passes then finish
	// the (row, neighbour) order.
	nbytes := (bits.Len32(uint32(maxID)) + 7) / 8
	keys, tmp := graph.RadixSort(keys, make([]uint64, len(keys)), 0, nbytes)
	var his []int32 // distinct neighbour IDs, ascending
	for p, key := range keys {
		if hi := int32(uint32(key)); len(his) == 0 || his[len(his)-1] != hi {
			his = append(his, hi)
		}
		keys[p] = key&^math.MaxUint32 | uint64(len(his)-1)
	}
	keys, _ = graph.RadixSort(keys, tmp, 32, nbytes)
	keys = slices.Compact(keys)
	var los []int32 // distinct row owners, ascending
	for p, key := range keys {
		if lo := int32(key >> 32); p == 0 || lo != int32(keys[p-1]>>32) {
			los = append(los, lo)
		}
	}

	// The vertex set is the merge of the two; hiAt[r] is where the
	// neighbour of rank r landed in it.
	ids := make([]int32, 0, len(his)+len(los))
	hiAt := make([]int32, len(his))
	for r, l := 0, 0; r < len(his) || l < len(los); {
		var v int32 // the lowest ID not merged yet
		switch {
		case l == len(los):
			v = his[r]
		case r == len(his):
			v = los[l]
		default:
			v = min(his[r], los[l])
		}
		if r < len(his) && his[r] == v {
			hiAt[r] = int32(len(ids))
			r++
		}
		if l < len(los) && los[l] == v {
			l++
		}
		ids = append(ids, v)
	}

	ix := &edgeIndex{
		ids:   ids,
		color: make([]int32, len(ids)),
		off:   make([]int32, len(ids)+1),
		nbr:   make([]int32, len(keys)),
	}
	for i, v := range ids {
		ix.color[i] = int32(colorOf(seed, v, c))
	}
	row := 0
	for p, key := range keys {
		for lo := int32(key >> 32); ids[row] != lo; {
			row++
			ix.off[row] = int32(p)
		}
		ix.nbr[p] = hiAt[uint32(key)]
	}
	for row++; row <= len(ids); row++ {
		ix.off[row] = int32(len(keys))
	}
	return ix
}

// row returns vertex i's neighbour indices, ascending.
func (ix *edgeIndex) row(i int32) []int32 { return ix.nbr[ix.off[i]:ix.off[i+1]] }

// has reports whether b is in a's row; on a forward index that is the
// edge test for a < b.
func (ix *edgeIndex) has(a, b int32) bool {
	_, ok := slices.BinarySearch(ix.row(a), b)
	return ok
}

// restrict returns the CSR of the rows cut down to their color-col
// neighbours (row i is nbr[off[i]:off[i+1]], still ascending).
func (ix *edgeIndex) restrict(col int32) (off, nbr []int32) {
	off = make([]int32, len(ix.off))
	nbr = make([]int32, 0, len(ix.nbr))
	for i := range ix.ids {
		for _, w := range ix.row(int32(i)) {
			if ix.color[w] == col {
				nbr = append(nbr, w)
			}
		}
		off[i+1] = int32(len(nbr))
	}
	return off, nbr
}

// triangles calls emit, in lexicographic order, for every triangle
// a < b < c of a forward index whose colors are (c1, c2, c3). For an
// edge (u, v) colored (c1, c2) it intersects only the c3-colored
// higher neighbours of u and of v — u's are stamped once per u, v's are
// probed against the stamps — so the inner loop is one load and one
// compare per candidate: no color is looked at, let alone hashed.
func (ix *edgeIndex) triangles(c1, c2, c3 int, emit func(graph.Triangle)) {
	off3, nbr3 := ix.restrict(int32(c3))
	stamp := make([]int32, len(ix.ids)) // stamp[w] == u+1: w is a c3-colored higher neighbour of u
	for u := range ix.ids {
		if ix.color[u] != int32(c1) {
			continue
		}
		mark := int32(u) + 1
		for _, w := range nbr3[off3[u]:off3[u+1]] {
			stamp[w] = mark
		}
		for _, v := range ix.row(int32(u)) {
			if ix.color[v] != int32(c2) {
				continue
			}
			for _, w := range nbr3[off3[v]:off3[v+1]] { // all above v
				if stamp[w] == mark {
					emit(graph.Triangle{A: ix.ids[u], B: ix.ids[v], C: ix.ids[w]})
				}
			}
		}
	}
}

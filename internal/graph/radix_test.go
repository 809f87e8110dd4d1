package graph

import (
	"cmp"
	"slices"
	"testing"

	"kmachine/internal/rng"
)

// TestRadixSortStable: RadixSort orders keys exactly as a stable sort by
// the digit window does — bits outside the window keep their input
// order among equal digits — including windows where some columns hold
// one value, which the kernel skips, and the full 8-byte window dsort
// sorts by.
func TestRadixSortStable(t *testing.T) {
	r := rng.New(5)
	for _, tc := range []struct {
		shift  uint
		nbytes int
		mask   uint64 // ANDed into every key: zero bits make constant columns
	}{
		{0, 8, ^uint64(0)},
		{0, 8, 0xff00ff00ffff00ff},
		{32, 4, 0x0000ffff_ffffffff},
		{0, 3, 0x00ff00ff},
		{32, 2, 0},
	} {
		for _, n := range []int{0, 1, 2, 257, 4096} {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = r.Uint64() & tc.mask
			}
			window := func(k uint64) uint64 {
				return k >> tc.shift & (1<<(8*uint(tc.nbytes)) - 1)
			}
			want := slices.Clone(keys)
			slices.SortStableFunc(want, func(a, b uint64) int { return cmp.Compare(window(a), window(b)) })
			got, _ := RadixSort(keys, make([]uint64, n), tc.shift, tc.nbytes)
			if !slices.Equal(got, want) {
				t.Fatalf("shift %d nbytes %d mask %#x n %d: not the stable order", tc.shift, tc.nbytes, tc.mask, n)
			}
		}
	}
}

package graph

// RadixSort stable-sorts keys by the nbytes bytes that start at bit
// shift, least significant first, ping-ponging between keys and tmp
// (equal lengths). It returns the sorted slice and the scratch one.
// The local kernels pack a (vertex, vertex) pair into each key, so
// ranking an edge set costs a few linear passes over plain words: no
// comparator, no reflection, no per-row slices.
func RadixSort(keys, tmp []uint64, shift uint, nbytes int) (sorted, scratch []uint64) {
	for end := shift + 8*uint(nbytes); shift < end; shift += 8 {
		var next [256]int
		for _, k := range keys {
			next[byte(k>>shift)]++
		}
		sum := 0
		for d, n := range next {
			next[d], sum = sum, sum+n
		}
		for _, k := range keys {
			d := byte(k >> shift)
			tmp[next[d]] = k
			next[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys, tmp
}

package graph

// RadixSort stable-sorts keys by the nbytes bytes that start at bit
// shift, least significant first, ping-ponging between keys and tmp
// (equal lengths). It returns the sorted slice and the scratch one. A
// digit column whose keys all share one value is skipped: it would
// move nothing. The local kernels pack a (vertex, vertex) pair into
// each key, so ranking an edge set costs a few linear passes over plain
// words: no comparator, no reflection, no per-row slices.
func RadixSort(keys, tmp []uint64, shift uint, nbytes int) (sorted, scratch []uint64) {
	for end := shift + 8*uint(nbytes); shift < end; shift += 8 {
		// Masked, the shift compiles to one instruction in both passes
		// below instead of a guarded shift that spills a register.
		s := shift & 63
		var next [256]int
		for _, k := range keys {
			next[byte(k>>s)]++
		}
		if len(keys) == 0 || next[byte(keys[0]>>s)] == len(keys) {
			continue
		}
		sum := 0
		for d, n := range next {
			next[d], sum = sum, sum+n
		}
		for _, k := range keys {
			d := byte(k >> s)
			tmp[next[d]] = k
			next[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys, tmp
}

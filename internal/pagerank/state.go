package pagerank

import (
	"fmt"

	twire "kmachine/internal/transport/wire"
)

// SnapshotState serialises the machine's dynamic PageRank state — the
// iteration counter and the token/visit counters of its local vertices
// in row (Locals()) order — appending to dst. Static structure (the
// partition view, the row and byIn indexes, the alias-table cache) is
// rebuilt identically by the machine factory and never serialised.
func (m *machine) SnapshotState(dst []byte) ([]byte, error) {
	dst = twire.AppendUvarint(dst, uint64(m.iter))
	for r := range m.tokens {
		dst = twire.AppendVarint(dst, m.tokens[r])
		dst = twire.AppendVarint(dst, m.psi[r])
	}
	return dst, nil
}

// RestoreState overwrites the machine's dynamic state from a
// SnapshotState blob taken on a machine built from the same inputs.
// The receiver may be dirty (mid-run, or a failed attempt's survivor):
// every dynamic field is rewritten and every piece of per-superstep
// scratch reset, so the next Step is bit-identical to the one the
// snapshotted machine would have taken.
func (m *machine) RestoreState(src []byte) error {
	c := twire.Cursor{Src: src}
	iter := c.Uvarint()
	for r := range m.tokens {
		m.tokens[r] = c.Varint()
		m.psi[r] = c.Varint()
	}
	if err := c.Finish(); err != nil {
		return fmt.Errorf("pagerank: restore: %w", err)
	}
	m.iter = int(iter)
	// Reset scratch: the light accumulator, heavy-path counts, and
	// link buckets are only guaranteed clean at barriers.
	clear(m.accVals)
	clear(m.touched)
	m.lo, m.hi = len(m.touched), -1
	clear(m.beta)
	for j := range m.buckets {
		m.buckets[j] = m.buckets[j][:0]
	}
	return nil
}

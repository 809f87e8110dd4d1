package dsort

import (
	"fmt"

	twire "kmachine/internal/transport/wire"
)

func appendU64s(dst []byte, xs []uint64) []byte {
	dst = twire.AppendUvarint(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = twire.AppendUvarint(dst, x)
	}
	return dst
}

func readU64s(c *twire.Cursor, into []uint64) []uint64 {
	n := int(c.Uvarint())
	into = into[:0]
	for i := 0; i < n && c.Err == nil; i++ {
		into = append(into, c.Uvarint())
	}
	return into
}

// SnapshotState serialises the machine's dynamic sort state — every
// phase-accumulated key set plus the rebalance cursor — appending to
// dst. The input keys are static (assigned at construction, never
// mutated) and are not serialised.
func (m *sortMachine) SnapshotState(dst []byte) ([]byte, error) {
	dst = appendU64s(dst, m.samples)
	dst = appendU64s(dst, m.splitters)
	dst = appendU64s(dst, m.bucket)
	dst = appendU64s(dst, m.final)
	dst = twire.AppendUvarint(dst, uint64(len(m.sizes)))
	for _, s := range m.sizes {
		dst = twire.AppendVarint(dst, s)
	}
	dst = twire.AppendVarint(dst, m.rebal)
	dst = twire.AppendUvarint(dst, uint64(m.sizesIn))
	return dst, nil
}

// RestoreState overwrites the machine's dynamic state from a
// SnapshotState blob taken on a machine built from the same inputs,
// reusing slice capacity where possible and resetting the emission scratch.
func (m *sortMachine) RestoreState(src []byte) error {
	c := twire.Cursor{Src: src}
	m.samples = readU64s(&c, m.samples)
	m.splitters = readU64s(&c, m.splitters)
	m.bucket = readU64s(&c, m.bucket)
	m.final = readU64s(&c, m.final)
	nSizes := int(c.Uvarint())
	m.sizes = m.sizes[:0]
	for i := 0; i < nSizes && c.Err == nil; i++ {
		m.sizes = append(m.sizes, c.Varint())
	}
	rebal := c.Varint()
	sizesIn := c.Uvarint()
	if err := c.Finish(); err != nil {
		return fmt.Errorf("dsort: restore: %w", err)
	}
	m.rebal = rebal
	m.sizesIn = int(sizesIn)
	for j := range m.buckets {
		m.buckets[j] = m.buckets[j][:0]
	}
	return nil
}

package triangle

import (
	"encoding/binary"
	"fmt"
	"slices"

	"kmachine/internal/graph"
	twire "kmachine/internal/transport/wire"
)

// SnapshotState serialises the machine's dynamic enumeration state:
// the heavy-vertex set (keys sorted — map iteration order must not
// leak into the blob), the accumulated final-edge list in arrival order
// (enumeration indexes a sorted copy, so its output does not depend on
// it), the running count/checksum, and any collected triangles/triads. The proxy-target table is static
// (derived from k and the color seed at construction) and never
// serialised.
func (m *triMachine) SnapshotState(dst []byte) ([]byte, error) {
	heavy := make([]int32, 0, len(m.heavy))
	for u := range m.heavy {
		heavy = append(heavy, u)
	}
	slices.Sort(heavy)
	dst = twire.AppendUvarint(dst, uint64(len(heavy)))
	for _, u := range heavy {
		dst = twire.AppendVarint(dst, int64(u))
	}
	dst = twire.AppendUvarint(dst, uint64(len(m.edges)))
	for _, e := range m.edges {
		dst = twire.AppendVarint(dst, int64(e[0]))
		dst = twire.AppendVarint(dst, int64(e[1]))
	}
	dst = twire.AppendVarint(dst, m.count)
	dst = binary.LittleEndian.AppendUint64(dst, m.checksum)
	dst = twire.AppendUvarint(dst, uint64(len(m.out)))
	for _, t := range m.out {
		dst = twire.AppendVarint(dst, int64(t.A))
		dst = twire.AppendVarint(dst, int64(t.B))
		dst = twire.AppendVarint(dst, int64(t.C))
	}
	dst = twire.AppendUvarint(dst, uint64(len(m.triads)))
	for _, t := range m.triads {
		dst = twire.AppendVarint(dst, int64(t.Center))
		dst = twire.AppendVarint(dst, int64(t.Left))
		dst = twire.AppendVarint(dst, int64(t.Right))
	}
	return dst, nil
}

// RestoreState overwrites the machine's dynamic state from a
// SnapshotState blob taken on a machine built from the same inputs.
func (m *triMachine) RestoreState(src []byte) error {
	c := twire.Cursor{Src: src}
	nHeavy := int(c.Uvarint())
	var heavy []int32 // grown by the bytes actually present, not sized by a count read off disk
	for i := 0; i < nHeavy && c.Err == nil; i++ {
		heavy = append(heavy, int32(c.Varint()))
	}
	nEdges := int(c.Uvarint())
	edges := m.edges[:0]
	for i := 0; i < nEdges && c.Err == nil; i++ {
		u := int32(c.Varint())
		v := int32(c.Varint())
		edges = append(edges, [2]int32{u, v})
	}
	count := c.Varint()
	checksum := c.Uint64()
	nOut := int(c.Uvarint())
	out := m.out[:0]
	for i := 0; i < nOut && c.Err == nil; i++ {
		a := int32(c.Varint())
		b := int32(c.Varint())
		cc := int32(c.Varint())
		out = append(out, graph.Triangle{A: a, B: b, C: cc})
	}
	nTriads := int(c.Uvarint())
	triads := m.triads[:0]
	for i := 0; i < nTriads && c.Err == nil; i++ {
		ce := int32(c.Varint())
		l := int32(c.Varint())
		r := int32(c.Varint())
		triads = append(triads, graph.Triad{Center: ce, Left: l, Right: r})
	}
	if err := c.Finish(); err != nil {
		return fmt.Errorf("triangle: restore: %w", err)
	}
	clear(m.heavy)
	for _, u := range heavy {
		m.heavy[u] = true
	}
	m.edges = edges
	m.count = count
	m.checksum = checksum
	m.out = out
	m.triads = triads
	return nil
}

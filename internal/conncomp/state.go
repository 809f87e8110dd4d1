package conncomp

import (
	"fmt"

	twire "kmachine/internal/transport/wire"
)

// SnapshotState serialises the machine's dynamic connectivity state:
// the phase counter, the per-local-vertex labels in Locals() order, and
// the last label sent for each ghost, so that a resumed run neither
// resends nor drops a label. The class and ghost tables are NOT
// serialised: the constructor builds them from the view alone, so a
// machine built from the same inputs already holds them.
func (m *ccMachine) SnapshotState(dst []byte) ([]byte, error) {
	dst = twire.AppendUvarint(dst, uint64(m.phase))
	for _, l := range m.label {
		dst = twire.AppendVarint(dst, int64(l))
	}
	for _, l := range m.sent {
		dst = twire.AppendVarint(dst, int64(l))
	}
	return dst, nil
}

// RestoreState overwrites the machine's dynamic state from a
// SnapshotState blob taken on a machine built from the same inputs.
// Label entries are overwritten in place (Output aliases the slice).
func (m *ccMachine) RestoreState(src []byte) error {
	c := twire.Cursor{Src: src}
	phase := c.Uvarint()
	for r := range m.label {
		m.label[r] = int32(c.Varint())
	}
	for g := range m.sent {
		m.sent[g] = int32(c.Varint())
	}
	if err := c.Finish(); err != nil {
		return fmt.Errorf("conncomp: restore: %w", err)
	}
	m.phase = int(phase)
	return nil
}

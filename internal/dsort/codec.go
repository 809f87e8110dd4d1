package dsort

import (
	"kmachine/internal/routing"
	twire "kmachine/internal/transport/wire"
)

// Wire is the envelope payload type of a distributed sort: the sample /
// key / size / rebalance message in its two-hop routing frame.
type Wire = wire

// WireCodec returns the binary codec for sort envelopes.
func WireCodec() twire.Codec[Wire] {
	return routing.HopCodec[smsg](smsgCodec{})
}

type smsgCodec struct{}

func (smsgCodec) Append(dst []byte, m smsg) ([]byte, error) {
	dst = append(dst, m.Kind)
	dst = twire.AppendUvarint(dst, m.Value)
	return twire.AppendVarint(dst, m.Count), nil
}

func (smsgCodec) Decode(src []byte) (smsg, int, error) {
	c := twire.Cursor{Src: src}
	m := smsg{Kind: c.Byte(), Value: c.Uvarint(), Count: c.Varint()}
	return m, c.Off, c.Err
}

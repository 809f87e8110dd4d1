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
	return twire.AppendUvarint(append(dst, m.Kind), m.Value), nil
}

func (smsgCodec) Decode(src []byte) (smsg, int, error) {
	c := twire.Cursor{Src: src}
	m := smsg{Kind: c.Byte(), Value: c.Uvarint()}
	return m, c.Off, c.Err
}

package triangle

import twire "kmachine/internal/transport/wire"

// Wire is the envelope payload type of the paper's triangle / 4-clique
// enumeration: ⟨kind, u, v⟩ edge and announcement messages. These
// travel without the two-hop frame — proxy indirection is explicit in
// the algorithm's superstep structure.
type Wire = tmsg

// BaselineWire is the payload of the conversion-style TriPartition
// baseline: ⟨deputy, u, v⟩ edge copies.
type BaselineWire = bmsg

// WireCodec returns the binary codec for triangle envelopes.
func WireCodec() twire.Codec[Wire] { return tmsgCodec{} }

// BaselineWireCodec returns the binary codec for baseline envelopes.
func BaselineWireCodec() twire.Codec[BaselineWire] { return bmsgCodec{} }

type tmsgCodec struct{}

func (tmsgCodec) Append(dst []byte, m tmsg) ([]byte, error) {
	dst = append(dst, m.Kind)
	dst = twire.AppendVarint(dst, int64(m.U))
	return twire.AppendVarint(dst, int64(m.V)), nil
}

func (tmsgCodec) Decode(src []byte) (tmsg, int, error) {
	c := twire.Cursor{Src: src}
	m := tmsg{Kind: c.Byte(), U: int32(c.Varint()), V: int32(c.Varint())}
	return m, c.Off, c.Err
}

type bmsgCodec struct{}

func (bmsgCodec) Append(dst []byte, m bmsg) ([]byte, error) {
	dst = twire.AppendVarint(dst, int64(m.Deputy))
	dst = twire.AppendVarint(dst, int64(m.U))
	return twire.AppendVarint(dst, int64(m.V)), nil
}

func (bmsgCodec) Decode(src []byte) (bmsg, int, error) {
	c := twire.Cursor{Src: src}
	m := bmsg{Deputy: int32(c.Varint()), U: int32(c.Varint()), V: int32(c.Varint())}
	return m, c.Off, c.Err
}

package conncomp

import twire "kmachine/internal/transport/wire"

// Wire is the envelope payload type of a connectivity run: a label for
// a vertex, sent straight to the vertex's home.
type Wire = cmsg

// WireCodec returns the binary codec for connectivity envelopes: the
// vertex and its label, two varints.
func WireCodec() twire.Codec[Wire] {
	return cmsgCodec{}
}

type cmsgCodec struct{}

func (cmsgCodec) Append(dst []byte, m cmsg) ([]byte, error) {
	dst = twire.AppendVarint(dst, int64(m.V))
	return twire.AppendVarint(dst, int64(m.Label)), nil
}

func (cmsgCodec) Decode(src []byte) (cmsg, int, error) {
	c := twire.Cursor{Src: src}
	m := cmsg{V: int32(c.Varint()), Label: int32(c.Varint())}
	return m, c.Off, c.Err
}

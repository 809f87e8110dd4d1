package conncomp

import twire "kmachine/internal/transport/wire"

// Wire is the envelope payload type of a connectivity run: a label or
// a change flag, sent straight to the machine it is for.
type Wire = cmsg

// WireCodec returns the binary codec for connectivity envelopes.
func WireCodec() twire.Codec[Wire] {
	return cmsgCodec{}
}

type cmsgCodec struct{}

func (cmsgCodec) Append(dst []byte, m cmsg) ([]byte, error) {
	flags := m.Kind << 1
	if m.Changed {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = twire.AppendVarint(dst, int64(m.V))
	return twire.AppendVarint(dst, int64(m.Label)), nil
}

func (cmsgCodec) Decode(src []byte) (cmsg, int, error) {
	c := twire.Cursor{Src: src}
	flags := c.Byte()
	m := cmsg{Kind: flags >> 1, Changed: flags&1 != 0, V: int32(c.Varint()), Label: int32(c.Varint())}
	return m, c.Off, c.Err
}

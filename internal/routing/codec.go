package routing

import (
	"fmt"
	"math"

	"kmachine/internal/core"
	"kmachine/internal/transport/wire"
)

// HopCodec lifts a payload codec to the two-hop Hop[M] framing: the
// final destination is prepended as a uvarint. Algorithms that route
// through random intermediates compose this with their message codec to
// obtain the wire format of their full envelope payload.
func HopCodec[M any](inner wire.Codec[M]) wire.Codec[Hop[M]] {
	return hopCodec[M]{inner: inner}
}

type hopCodec[M any] struct {
	inner wire.Codec[M]
}

func (h hopCodec[M]) Append(dst []byte, m Hop[M]) ([]byte, error) {
	if m.Final < 0 {
		return dst, fmt.Errorf("routing: hop with negative final destination %d", m.Final)
	}
	dst = wire.AppendUvarint(dst, uint64(m.Final))
	return h.inner.Append(dst, m.Msg)
}

func (h hopCodec[M]) Decode(src []byte) (Hop[M], int, error) {
	c := wire.Cursor{Src: src}
	final := c.Uvarint()
	if final > math.MaxInt32 {
		return Hop[M]{}, 0, fmt.Errorf("routing: hop destination %d out of range", final)
	}
	m := Hop[M]{Final: core.MachineID(final), Msg: wire.Read(&c, h.inner)}
	return m, c.Off, c.Err
}

package pagerank

import (
	"kmachine/internal/routing"
	twire "kmachine/internal/transport/wire"
)

// Wire is the envelope payload type of a PageRank run: the token-count
// message in a routing.Hop frame whose Final is always the receiver
// (benchmark/micro.go builds it). It is exported so callers can time a
// loopback exchange (inmem.New[pagerank.Wire]) or drive a standalone
// node (node.Run with a pagerank machine).
type Wire = wire

// WireCodec returns the binary codec for PageRank envelopes: the
// Hop framing around ⟨kind, vertex, count⟩.
func WireCodec() twire.Codec[Wire] {
	return routing.HopCodec[msg](msgCodec{})
}

type msgCodec struct{}

func (msgCodec) Append(dst []byte, m msg) ([]byte, error) {
	dst = append(dst, m.Kind)
	dst = twire.AppendVarint(dst, int64(m.V))
	return twire.AppendVarint(dst, m.Count), nil
}

func (msgCodec) Decode(src []byte) (msg, int, error) {
	c := twire.Cursor{Src: src}
	m := msg{Kind: c.Byte(), V: int32(c.Varint()), Count: c.Varint()}
	return m, c.Off, c.Err
}

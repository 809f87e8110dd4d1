package pagerank

import (
	"fmt"

	"kmachine/internal/routing"
	twire "kmachine/internal/transport/wire"
)

// Wire is the envelope payload type of a PageRank run: the token-count
// message in its two-hop routing frame. It is exported so callers can
// build a loopback transport (inmem.New[pagerank.Wire]) or drive a
// standalone node (node.Run with a pagerank machine).
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
	if len(src) < 1 {
		return msg{}, 0, fmt.Errorf("pagerank: truncated message")
	}
	m := msg{Kind: src[0]}
	pos := 1
	v, n, err := twire.Varint(src[pos:])
	if err != nil {
		return msg{}, 0, err
	}
	m.V = int32(v)
	pos += n
	c, n, err := twire.Varint(src[pos:])
	if err != nil {
		return msg{}, 0, err
	}
	m.Count = c
	return m, pos + n, nil
}

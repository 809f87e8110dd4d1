package core

import (
	"fmt"

	"kmachine/internal/transport"
	"kmachine/internal/transport/inmem"
	"kmachine/internal/transport/tcp"
	"kmachine/internal/transport/wire"
)

// OpenTransport resolves a transport kind (Config.Transport) to a live
// Transport for message type M. The codec is only exercised by
// substrates that actually serialise (tcp); the loopback ignores it.
// Callers own the returned transport and must Close it after RunOn.
func OpenTransport[M any](kind transport.Kind, k int, codec wire.Codec[M]) (Transport[M], error) {
	switch kind {
	case transport.Default, transport.InMem:
		return inmem.New[M](k), nil
	case transport.TCP:
		if codec == nil {
			return nil, fmt.Errorf("core: transport %q needs a message codec", kind)
		}
		return tcp.New[M](k, codec)
	default:
		return nil, fmt.Errorf("core: unknown transport kind %q", kind)
	}
}

// RunOverWire resolves the cluster's Config.Transport with the given
// codec, runs on it, and closes it, reporting the physical bytes-on-wire
// the substrate shipped (zero for the loopback, which implements no
// transport.WireMeter). The WireStats ride alongside the paper-level
// Stats rather than inside them: Stats are bit-identical across
// substrates by construction, while bytes-on-wire are exactly the
// substrate-dependent quantity the model abstracts away.
func RunOverWire[M any](c *Cluster[M], codec wire.Codec[M]) (*Stats, transport.WireStats, error) {
	t, err := OpenTransport[M](c.cfg.Transport, c.cfg.K, codec)
	if err != nil {
		return nil, transport.WireStats{}, err
	}
	defer t.Close()
	if c.cfg.Recorder != nil {
		// Substrates with frame-level detail (tcp) record per-peer
		// write/read/decode spans into the same recorder the drivers'
		// phase spans go to; the loopback has none and stays dark.
		if ts, ok := t.(transport.TraceSink); ok {
			ts.SetRecorder(c.cfg.Recorder)
		}
	}
	stats, err := c.RunOn(t, codec)
	var w transport.WireStats
	if m, ok := t.(transport.WireMeter); ok {
		w = m.WireStats()
	}
	return stats, w, err
}

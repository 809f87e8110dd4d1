package routing

import (
	"testing"

	"kmachine/internal/core"
	"kmachine/internal/testutil"
	"kmachine/internal/transport/wire"
)

type u64Codec struct{}

func (u64Codec) Append(dst []byte, v uint64) ([]byte, error) { return wire.AppendUvarint(dst, v), nil }
func (u64Codec) Decode(src []byte) (uint64, int, error) {
	c := wire.Cursor{Src: src}
	v := c.Uvarint()
	return v, c.Off, c.Err
}

func TestHopCodecRoundTripAndGuards(t *testing.T) {
	c := HopCodec[uint64](u64Codec{})
	for _, final := range []core.MachineID{0, 1, 1 << 20} {
		h := Hop[uint64]{Final: final, Msg: 12345}
		buf, err := c.Append(nil, h)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := c.Decode(buf)
		if err != nil || got != h || n != len(buf) {
			t.Fatalf("round trip %+v: got %+v (n=%d, err=%v)", h, got, n, err)
		}
		testutil.RejectsEveryPrefix(t, c.Decode, buf)
	}
	// The routing experiments' probe, alone and in its hop frame.
	probes := HopCodec[routeProbe](probeCodec{})
	for _, tok := range []int32{0, -1, 63, -64, 1 << 30, -1 << 31} {
		h := Hop[routeProbe]{Final: 3, Msg: routeProbe{Token: tok}}
		buf, err := probes.Append(nil, h)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := probes.Decode(buf)
		if err != nil || got != h || n != len(buf) {
			t.Fatalf("round trip %+v: got %+v (n=%d, err=%v)", h, got, n, err)
		}
		testutil.RejectsEveryPrefix(t, probes.Decode, buf)
		testutil.RejectsEveryPrefix(t, probeCodec{}.Decode, buf[1:]) // Final 3 is one byte
	}
	if _, err := c.Append(nil, Hop[uint64]{Final: -1}); err == nil {
		t.Error("negative Final encoded without error")
	}
	// A corrupted frame whose Final decodes above int32 range must be
	// rejected, not silently truncated into a wrong MachineID.
	bad := wire.AppendUvarint(nil, 1<<40)
	bad = wire.AppendUvarint(bad, 7)
	if _, _, err := c.Decode(bad); err == nil {
		t.Error("out-of-range Final decoded without error")
	}
}

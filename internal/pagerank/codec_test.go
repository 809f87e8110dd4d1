package pagerank

import (
	"testing"

	"kmachine/internal/core"
	"kmachine/internal/rng"
	"kmachine/internal/routing"
	"kmachine/internal/testutil"
)

func TestWireCodecRoundTripProperty(t *testing.T) {
	r := rng.New(3)
	c := WireCodec()
	kinds := []uint8{kindLight, kindHeavy}
	for i := 0; i < 3000; i++ {
		want := Wire{
			Final: core.MachineID(r.Intn(1 << 16)),
			Msg: msg{
				Kind:  kinds[r.Intn(len(kinds))],
				V:     int32(r.Uint64()),
				Count: int64(r.Uint64()) >> uint(r.Intn(64)),
			},
		}
		buf, err := c.Append(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := c.Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || n != len(buf) {
			t.Fatalf("round trip: got %+v (n=%d), want %+v (len=%d)", got, n, want, len(buf))
		}
		testutil.RejectsEveryPrefix(t, c.Decode, buf)
	}
	if _, _, err := c.Decode(nil); err == nil {
		t.Error("empty input decoded without error")
	}
}

func TestWireCodecMatchesHopFraming(t *testing.T) {
	// The exported codec must agree with composing HopCodec by hand.
	c := WireCodec()
	h := routing.HopCodec[msg](msgCodec{})
	w := Wire{Final: 5, Msg: msg{Kind: kindHeavy, V: -7, Count: 123456789}}
	a, err := c.Append(nil, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Append(nil, w)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("codec bytes diverge: %x vs %x", a, b)
	}
}

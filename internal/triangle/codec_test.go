package triangle

import (
	"testing"

	"kmachine/internal/rng"
	"kmachine/internal/testutil"
)

func TestWireCodecRoundTripProperty(t *testing.T) {
	r := rng.New(31)
	c := WireCodec()
	kinds := []uint8{kindHeavyAnnounce, kindEdgeToProxy, kindEdgeFinal}
	for i := 0; i < 3000; i++ {
		want := Wire{
			Kind: kinds[r.Intn(len(kinds))],
			U:    int32(r.Uint64()),
			V:    int32(r.Uint64()),
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
}

func TestBaselineWireCodecRoundTripProperty(t *testing.T) {
	r := rng.New(37)
	c := BaselineWireCodec()
	for i := 0; i < 3000; i++ {
		want := BaselineWire{
			Deputy: int32(r.Uint64()),
			U:      int32(r.Uint64()),
			V:      int32(r.Uint64()),
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
}

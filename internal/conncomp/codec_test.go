package conncomp

import (
	"testing"

	"kmachine/internal/rng"
	"kmachine/internal/testutil"
)

func TestWireCodecRoundTripProperty(t *testing.T) {
	r := rng.New(23)
	c := WireCodec()
	kinds := []uint8{kindLabel, kindFlag}
	for i := 0; i < 3000; i++ {
		want := Wire{
			Kind:    kinds[r.Intn(len(kinds))],
			V:       int32(r.Uint64()),
			Label:   int32(r.Uint64()),
			Changed: r.Intn(2) == 0,
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

package conncomp

import (
	"testing"

	"kmachine/internal/rng"
	"kmachine/internal/testutil"
)

func TestWireCodecRoundTripProperty(t *testing.T) {
	r := rng.New(23)
	c := WireCodec()
	for i := 0; i < 3000; i++ {
		want := Wire{V: int32(r.Uint64()), Label: int32(r.Uint64())}
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

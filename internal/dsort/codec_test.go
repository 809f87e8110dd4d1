package dsort

import (
	"testing"

	"kmachine/internal/core"
	"kmachine/internal/rng"
	"kmachine/internal/testutil"
)

func TestWireCodecRoundTripProperty(t *testing.T) {
	r := rng.New(11)
	c := WireCodec()
	kinds := []uint8{kindSample, kindKey, kindSize, kindFinal}
	for i := 0; i < 3000; i++ {
		want := Wire{
			Final: core.MachineID(r.Intn(1 << 16)),
			Msg: smsg{
				Kind:  kinds[r.Intn(len(kinds))],
				Value: r.Uint64() >> uint(r.Intn(64)),
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
}

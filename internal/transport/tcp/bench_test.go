package tcp

// BenchmarkExchange measures the TCP substrate's hot path — one full
// superstep over the loopback mesh: parallel encode, k(k-1) batch frame
// ships, parallel decode, inbox merge — across
// cluster sizes and batch sizes. bytes/superstep is the measured wire
// traffic (from the endpoint WireStats), so format regressions show up
// next to time regressions in the same table.

import (
	"context"
	"fmt"
	"testing"

	"kmachine/internal/transport"
)

// benchOuts builds the per-machine outboxes: each machine ships `batch`
// envelopes to every peer, the all-to-all pattern of the paper's
// conversion theorems.
func benchOuts(k, batch int) [][]transport.Envelope[testMsg] {
	outs := make([][]transport.Envelope[testMsg], k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if j == i {
				continue
			}
			for n := 0; n < batch; n++ {
				outs[i] = append(outs[i], transport.Envelope[testMsg]{
					From:  transport.MachineID(i),
					To:    transport.MachineID(j),
					Words: 2,
					Msg:   testMsg{Tag: int64(i*1000 + j*100 + n)},
				})
			}
		}
	}
	return outs
}

func benchExchange(b *testing.B, k, batch int) {
	tr, err := New[testMsg](k, testCodec{})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	outs := benchOuts(k, batch)
	ctx := context.Background()
	// Warm the recycled buffers so the measurement is steady state.
	if _, err := tr.Exchange(ctx, 0, outs); err != nil {
		b.Fatal(err)
	}
	before := tr.WireStats()
	b.ReportAllocs()
	b.ResetTimer()
	for s := 0; s < b.N; s++ {
		if _, err := tr.Exchange(ctx, s+1, outs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	w := tr.WireStats()
	b.ReportMetric(float64(w.BytesSent-before.BytesSent)/float64(b.N), "wirebytes/op")
}

func BenchmarkExchange(b *testing.B) {
	for _, k := range []int{4, 8, 16} {
		for _, batch := range []int{1, 16, 256} {
			b.Run(fmt.Sprintf("k=%d/batch=%d", k, batch), func(b *testing.B) {
				benchExchange(b, k, batch)
			})
		}
	}
}

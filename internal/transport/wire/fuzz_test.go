package wire

import (
	"bytes"
	"slices"
	"testing"

	"kmachine/internal/transport"
)

// FuzzBatchDecode is the robustness fence of the versioned batch
// decoder: arbitrary bytes must never panic it, decoding them at an
// offset of a shared slice must behave exactly like decoding them alone,
// and whatever it accepts must survive a re-encode/decode round trip
// value-identically. The
// same input additionally seeds a constructive check — a batch built
// from the fuzzed bytes encodes and decodes back to itself — so one
// target covers both directions (decoder hardening and encoder/decoder
// identity) for the CI fuzz-smoke job, which can only drive a single
// -fuzz pattern. The bytes also take the socket reader's acceptance
// path — PeelJobHeader, which splits off the job and the row, then
// BatchHeader, then a decode into storage sized by the header's count —
// which every batch frame of every run goes through.
func FuzzBatchDecode(f *testing.F) {
	c := pairCodec{}
	// Seed corpus: a valid batch, the legal empty batch, known-corrupt
	// shapes from the unit tests, and the batch frame as the socket link
	// ships it for a single run (job 0) and for a job of a standing mesh,
	// with and without a row.
	envs := []transport.Envelope[pairMsg]{
		{From: 1, To: 2, Words: 4, Msg: pairMsg{A: -9, B: 11}},
		{From: 1, To: 2, Words: 0, Msg: pairMsg{A: 0, B: 1}},
		{From: 3, To: 2, Words: 7, Msg: pairMsg{A: 5, B: 0}},
	}
	if seed, err := AppendBatchV2(nil, 3, 1, 2, envs, c); err == nil {
		f.Add(seed)
	}
	if seed, err := AppendBatchV2(nil, 0, 0, 2, nil, c); err == nil {
		f.Add(seed)
	}
	f.Add([]byte{BatchV2, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{})
	for _, job := range []uint64{0, 300} {
		if seed, err := AppendBatchV2(AppendJobHeader(nil, job, []byte{1, 2, 3, 0, 9, 4}), 3, 1, 2, envs, c); err == nil {
			f.Add(seed)
		}
	}
	if seed, err := AppendBatchV2(AppendJobHeader(nil, 0, nil), 3, 1, 2, nil, c); err == nil {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, src []byte) {
		// Decoder hardening: must reject or accept without panicking,
		// and an accepted batch must re-encode into a decodable batch
		// with identical values (the encoding itself may differ — the
		// decoder accepts non-canonical run splits the encoder never
		// produces).
		const sender = transport.MachineID(1)
		const to = transport.MachineID(2)
		step, from, envs, err := DecodeBatchAnyInto(src, c, sender, to, nil)

		// The same bytes decoded at an offset (a transport's inbox slot
		// behind earlier senders' envelopes): the same verdict and the
		// same envelopes, appended behind a prefix that is never written
		// and, on an error, never extended. The spare capacity varies so
		// both the in-place and the regrown arm run.
		prefix := []transport.Envelope[pairMsg]{
			{From: 60, To: 61, Words: 62, Msg: pairMsg{A: 63, B: 64}},
			{From: 70, To: 71, Words: 72, Msg: pairMsg{A: 73, B: 74}},
		}
		dst := append(make([]transport.Envelope[pairMsg], 0, len(prefix)+len(src)%3*64), prefix...)
		astep, got, aerr := AppendDecodedBatch(dst, src, c, sender, to)
		if (aerr == nil) != (err == nil) {
			t.Fatalf("verdict depends on the offset: %v at 0, %v at %d", err, aerr, len(prefix))
		}
		if !slices.Equal(dst, prefix) || !slices.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("decode at offset %d wrote into dst[:%d]", len(prefix), len(prefix))
		}
		if err != nil && len(got) != len(prefix) {
			t.Fatalf("failed decode extended dst from %d to %d envelopes", len(prefix), len(got))
		}
		if err == nil && (astep != step || !slices.Equal(got[len(prefix):], envs)) {
			t.Fatalf("decode at offset %d: step %d envelopes %+v, want step %d envelopes %+v",
				len(prefix), astep, got[len(prefix):], step, envs)
		}

		if err == nil {
			reenc, err := AppendBatchV2(nil, step, from, to, envs, c)
			if err != nil {
				t.Fatalf("re-encode of decoded batch failed: %v", err)
			}
			step2, from2, envs2, err := DecodeBatchAnyInto(reenc, c, from, to, nil)
			if err != nil {
				t.Fatalf("re-encoded batch rejected: %v", err)
			}
			if step2 != step || from2 != from || len(envs2) != len(envs) {
				t.Fatalf("re-encode header drift: (%d,%d,%d) -> (%d,%d,%d)",
					step, from, len(envs), step2, from2, len(envs2))
			}
			for i := range envs {
				if envs[i] != envs2[i] {
					t.Fatalf("re-encode envelope %d drift: %+v -> %+v", i, envs[i], envs2[i])
				}
			}
		}

		// The reader's acceptance path: what passes the job and batch
		// headers decodes, if at all, to exactly the superstep and count
		// the header promised, into storage sized by that count. What
		// peels re-wraps into a frame that peels to the same job, row and
		// batch.
		if job, row, inner, err := PeelJobHeader(src); err == nil {
			job2, row2, inner2, err := PeelJobHeader(append(AppendJobHeader(nil, job, row), inner...))
			if err != nil || job2 != job || !bytes.Equal(row2, row) || !bytes.Equal(inner2, inner) {
				t.Fatalf("re-wrapped frame peels to (%d, % x, % x, %v), want (%d, % x, % x)", job2, row2, inner2, err, job, row, inner)
			}
			if hstep, count, _, err := BatchHeader(inner); err == nil {
				dstep, denvs, err := AppendDecodedBatch(make([]transport.Envelope[pairMsg], 0, count), inner, c, sender, to)
				if err == nil && (dstep != hstep || len(denvs) != count) {
					t.Fatalf("accepted batch decodes to step %d, %d envelopes; header said step %d, %d",
						dstep, len(denvs), hstep, count)
				}
			}
		}

		// Constructive identity: derive a well-formed batch from the
		// fuzz bytes and assert exact round-trip.
		built := batchFromBytes(src)
		bstep, bfrom := len(src)%4096, transport.MachineID(len(src)%64)
		v2, err := AppendBatchV2(nil, bstep, bfrom, to, built, c)
		if err != nil {
			t.Fatalf("encode of well-formed batch failed: %v", err)
		}
		gstep, gfrom, genvs, err := DecodeBatchAnyInto(v2, c, bfrom, to, nil)
		if err != nil {
			t.Fatalf("round trip decode failed: %v", err)
		}
		if gstep != bstep || gfrom != bfrom || len(genvs) != len(built) {
			t.Fatalf("round trip header: got (%d,%d,%d), want (%d,%d,%d)",
				gstep, gfrom, len(genvs), bstep, bfrom, len(built))
		}
		for i := range built {
			if genvs[i] != built[i] {
				t.Fatalf("round trip envelope %d: got %+v, want %+v", i, genvs[i], built[i])
			}
		}
	})
}

// batchFromBytes deterministically shapes fuzz input into a valid
// single-destination batch: each input byte contributes one envelope
// (capped so a megabyte mutation doesn't stall the fuzzer on a
// million-envelope batch), with From/Words/payload derived from a
// rolling state so runs of equal From (the run-length-encoded path)
// appear naturally.
func batchFromBytes(src []byte) []transport.Envelope[pairMsg] {
	if len(src) > 512 {
		src = src[:512]
	}
	envs := make([]transport.Envelope[pairMsg], 0, len(src))
	from := transport.MachineID(0)
	for i, b := range src {
		if b&0x07 == 0 { // change From on ~1/8 of bytes: real run lengths
			from = transport.MachineID(b>>3) % 64
		}
		envs = append(envs, transport.Envelope[pairMsg]{
			From:  from,
			To:    2,
			Words: int32(b),
			Msg:   pairMsg{A: int64(i) - int64(b), B: uint64(b) << uint(i%8)},
		})
	}
	return envs
}

// TestFuzzSeedsPass runs the seed corpus through the fuzz body once in
// a plain `go test`, so a broken seed fails fast everywhere instead of
// only in the -fuzz smoke job.
func TestFuzzSeedsPass(t *testing.T) {
	c := pairCodec{}
	envs := []transport.Envelope[pairMsg]{
		{From: 1, To: 2, Words: 4, Msg: pairMsg{A: -9, B: 11}},
		{From: 3, To: 2, Words: 7, Msg: pairMsg{A: 5, B: 0}},
	}
	v2, err := AppendBatchV2(nil, 3, 1, 2, envs, c)
	if err != nil {
		t.Fatal(err)
	}
	s, fr, got, err := DecodeBatchAnyInto(v2, c, 1, 2, nil)
	if err != nil || s != 3 || fr != 1 || len(got) != 2 {
		t.Fatalf("seed decode: step=%d from=%d n=%d err=%v", s, fr, len(got), err)
	}
	if !bytes.Equal(v2[:1], []byte{BatchV2}) {
		t.Fatalf("v2 batch does not start with the version byte: % x", v2[:2])
	}
}

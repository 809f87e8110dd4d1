package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"kmachine/internal/rng"
	"kmachine/internal/transport"
)

// pairMsg is a minimal payload for batch tests.
type pairMsg struct {
	A int64
	B uint64
}

type pairCodec struct{}

func (pairCodec) Append(dst []byte, m pairMsg) ([]byte, error) {
	dst = AppendVarint(dst, m.A)
	return AppendUvarint(dst, m.B), nil
}

func (pairCodec) Decode(src []byte) (pairMsg, int, error) {
	c := Cursor{Src: src}
	m := pairMsg{A: c.Varint(), B: c.Uvarint()}
	return m, c.Off, c.Err
}

// TestVarintRoundTrip round-trips random values through the Cursor's
// readers, then drives every reader into its failure path: the first
// failure latches, later reads return 0 without moving Off, and Finish
// reports what is left over.
func TestVarintRoundTrip(t *testing.T) {
	r := rng.New(1)
	for i := 0; i < 2000; i++ {
		u := r.Uint64() >> uint(r.Intn(64))
		s := int64(r.Uint64()) >> uint(r.Intn(64))
		buf := AppendVarint(AppendUvarint(nil, u), s)
		c := Cursor{Src: buf}
		if gu, gs := c.Uvarint(), c.Varint(); c.Finish() != nil || gu != u || gs != s {
			t.Fatalf("uvarint %d, varint %d: got %d, %d (off=%d/%d, err=%v)", u, s, gu, gs, c.Off, len(buf), c.Err)
		}
	}

	overlong := append(bytes.Repeat([]byte{0x80}, 10), 0x01) // 11 bytes: past binary.MaxVarintLen64
	section := PrefixLen([]byte{9, 9, 9}, 0)
	for _, tc := range []struct {
		name string
		src  []byte
		read func(c *Cursor) uint64
	}{
		{"truncated uvarint", []byte{0x80, 0x80}, func(c *Cursor) uint64 { return c.Uvarint() }},
		{"overlong uvarint", overlong, func(c *Cursor) uint64 { return c.Uvarint() }},
		{"truncated varint", []byte{0xff}, func(c *Cursor) uint64 { return uint64(c.Varint()) }},
		{"overlong varint", overlong, func(c *Cursor) uint64 { return uint64(c.Varint()) }},
		{"truncated byte", nil, func(c *Cursor) uint64 { return uint64(c.Byte()) }},
		{"truncated uint64", []byte{1, 2, 3, 4, 5, 6, 7}, func(c *Cursor) uint64 { return c.Uint64() }},
		{"truncated length-prefixed", section[:len(section)-1], func(c *Cursor) uint64 { return uint64(len(c.LenPrefixed())) }},
	} {
		// One good read first, so the failure happens at a nonzero offset.
		c := Cursor{Src: append([]byte{0x05}, tc.src...)}
		if v := c.Uvarint(); v != 5 || c.Off != 1 || c.Err != nil {
			t.Fatalf("%s: lead-in read got %d (off=%d, err=%v)", tc.name, v, c.Off, c.Err)
		}
		if v := tc.read(&c); v != 0 || c.Err == nil {
			t.Errorf("%s: read %d with err %v, want 0 and an error", tc.name, v, c.Err)
		}
		failed, off := c.Err, c.Off
		if off > len(c.Src) {
			t.Errorf("%s: failed read moved Off to %d past %d bytes", tc.name, off, len(c.Src))
		}
		// Bytes that would decode now must not: the failure stays latched.
		c.Src = append(c.Src, bytes.Repeat([]byte{0x01}, 9)...)
		if c.Uvarint() != 0 || c.Varint() != 0 || c.Byte() != 0 || c.Uint64() != 0 || c.LenPrefixed() != nil {
			t.Errorf("%s: a read after the failure returned a value", tc.name)
		}
		if c.Off != off || c.Err != failed {
			t.Errorf("%s: reads after the failure moved Off %d -> %d or replaced err %v with %v", tc.name, off, c.Off, failed, c.Err)
		}
		if err := c.Finish(); err != failed {
			t.Errorf("%s: Finish = %v, want the latched %v", tc.name, err, failed)
		}
	}

	c := Cursor{Src: []byte{0x01, 0x02, 0x03}}
	if c.Byte(); c.Err != nil || c.Finish() == nil {
		t.Errorf("Finish with 2 trailing bytes = %v, want an error", c.Finish())
	}
}

// v2Batch builds a random single-destination batch (the shape the TCP
// transport ships): every envelope addressed to `to`, From values in
// runs so the run-length encoding path is exercised.
func v2Batch(r *rng.RNG, from, to transport.MachineID, n int) []transport.Envelope[pairMsg] {
	envs := make([]transport.Envelope[pairMsg], 0, n)
	f := from
	for len(envs) < n {
		if r.Intn(3) == 0 {
			f = transport.MachineID(r.Intn(64))
		}
		envs = append(envs, transport.Envelope[pairMsg]{
			From:  f,
			To:    to,
			Words: int32(r.Intn(1000)),
			Msg:   pairMsg{A: int64(r.Uint64()) >> 3, B: r.Uint64()},
		})
	}
	return envs
}

func TestBatchV2RoundTripProperty(t *testing.T) {
	r := rng.New(271)
	c := pairCodec{}
	for trial := 0; trial < 300; trial++ {
		step := r.Intn(1 << 16)
		from := transport.MachineID(r.Intn(64))
		to := transport.MachineID(r.Intn(64))
		envs := v2Batch(r, from, to, r.Intn(50))
		buf, err := AppendBatchV2(nil, step, from, to, envs, c)
		if err != nil {
			t.Fatal(err)
		}
		gotStep, gotFrom, gotEnvs, err := DecodeBatchAnyInto(buf, c, from, to, nil)
		if err != nil {
			t.Fatal(err)
		}
		if gotStep != step || gotFrom != from || len(gotEnvs) != len(envs) {
			t.Fatalf("batch header: got (%d,%d,%d), want (%d,%d,%d)",
				gotStep, gotFrom, len(gotEnvs), step, from, len(envs))
		}
		for i := range envs {
			if gotEnvs[i] != envs[i] {
				t.Fatalf("envelope %d: got %+v, want %+v", i, gotEnvs[i], envs[i])
			}
		}
	}
}

func TestBatchV2RejectsCorruption(t *testing.T) {
	c := pairCodec{}
	envs := []transport.Envelope[pairMsg]{
		{From: 1, To: 2, Words: 4, Msg: pairMsg{A: -9, B: 11}},
		{From: 3, To: 2, Words: 7, Msg: pairMsg{A: 5, B: 0}},
	}
	buf, err := AppendBatchV2(nil, 3, 1, 2, envs, c)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the pristine encoding decodes.
	if _, _, _, err := DecodeBatchAnyInto(buf, c, 1, 2, nil); err != nil {
		t.Fatalf("pristine v2 batch rejected: %v", err)
	}
	// Truncation at every boundary must be detected.
	for cut := 0; cut < len(buf); cut++ {
		if _, _, _, err := DecodeBatchAnyInto(buf[:cut], c, 1, 2, nil); err == nil {
			t.Errorf("v2 batch truncated to %d/%d bytes decoded without error", cut, len(buf))
		}
	}
	if _, _, _, err := DecodeBatchAnyInto(append(append([]byte(nil), buf...), 0xff), c, 1, 2, nil); err == nil {
		t.Error("v2 batch with trailing bytes decoded without error")
	}
	// 0x01 framed the per-envelope layout this format replaced; it is an
	// unknown version like any other now.
	for _, v := range []byte{0x01, 0x7f} {
		if _, _, _, err := DecodeBatchAnyInto(append([]byte{v}, buf[1:]...), c, 1, 2, nil); err == nil {
			t.Errorf("batch version 0x%02x decoded without error", v)
		}
	}
	if _, _, _, err := DecodeBatchAnyInto(nil, c, 1, 2, nil); err == nil {
		t.Error("empty batch frame decoded without error")
	}
	// Absurd count with no envelope bytes behind it.
	huge := []byte{BatchV2}
	huge = AppendUvarint(huge, 0)
	huge = AppendUvarint(huge, 1<<40)
	if _, _, _, err := DecodeBatchAnyInto(huge, c, 1, 2, nil); err == nil {
		t.Error("v2 batch with absurd count decoded without error")
	}
	// A run whose delta drives From negative.
	neg := []byte{BatchV2}
	neg = AppendUvarint(neg, 0) // step
	neg = AppendUvarint(neg, 1) // sender
	neg = AppendUvarint(neg, 1) // count
	neg = AppendVarint(neg, -5) // delta: From = 1-5 = -4
	neg = AppendUvarint(neg, 1) // run length
	neg = AppendUvarint(neg, 0) // words
	neg = AppendUvarint(neg, 0) // payloadLen
	if _, _, _, err := DecodeBatchAnyInto(neg, c, 1, 2, nil); err == nil {
		t.Error("v2 batch with negative From decoded without error")
	}
	// A zero-length run (would never terminate coverage).
	zero := []byte{BatchV2}
	zero = AppendUvarint(zero, 0)
	zero = AppendUvarint(zero, 1) // count 1
	zero = AppendVarint(zero, 0)
	zero = AppendUvarint(zero, 0) // run length 0
	if _, _, _, err := DecodeBatchAnyInto(zero, c, 1, 2, nil); err == nil {
		t.Error("v2 batch with zero-length run decoded without error")
	}
	// Payload length prefix that disagrees with the remaining bytes.
	lie, err := AppendBatchV2(nil, 3, 1, 2, envs[:1], c)
	if err != nil {
		t.Fatal(err)
	}
	lie = append(lie, 0x00) // one trailing byte the prefix does not cover
	if _, _, _, err := DecodeBatchAnyInto(lie, c, 1, 2, nil); err == nil {
		t.Error("v2 batch with lying payload prefix decoded without error")
	}
}

func TestAppendBatchV2RejectsForeignDestination(t *testing.T) {
	c := pairCodec{}
	envs := []transport.Envelope[pairMsg]{{From: 0, To: 3, Words: 1}}
	if _, err := AppendBatchV2(nil, 0, 0, 2, envs, c); err == nil {
		t.Error("v2 batch accepted an envelope addressed to a different machine")
	}
	if _, err := AppendBatchV2(nil, 0, 0, 3, []transport.Envelope[pairMsg]{{From: 0, To: 3, Words: -1}}, c); err == nil {
		t.Error("v2 batch accepted negative Words")
	}
	if _, err := AppendBatchV2(nil, 0, 0, 3, []transport.Envelope[pairMsg]{{From: -1, To: 3, Words: 1}}, c); err == nil {
		t.Error("v2 batch accepted negative From")
	}
}

func TestFrameSize(t *testing.T) {
	r := rng.New(5)
	c := pairCodec{}
	for trial := 0; trial < 50; trial++ {
		from := transport.MachineID(r.Intn(64))
		to := transport.MachineID(r.Intn(64))
		envs := v2Batch(r, from, to, r.Intn(40))
		enc, err := AppendBatchV2(nil, r.Intn(1000), from, to, envs, c)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, enc); err != nil {
			t.Fatal(err)
		}
		if got := FrameSize(len(enc)); got != buf.Len() {
			t.Errorf("FrameSize(%d) = %d, actual frame is %d bytes", len(enc), got, buf.Len())
		}
	}
}

// TestFrameHeaderLimit: the one length rule, at its edge. A frame of
// exactly MaxFrame bytes gets its uvarint header; one byte more is
// refused with dst returned as it came. Only the length is needed, so
// no frame is allocated.
func TestFrameHeaderLimit(t *testing.T) {
	dst := []byte{0xEE}
	got, err := AppendFrameHeader(dst, MaxFrame)
	if err != nil {
		t.Fatalf("AppendFrameHeader(MaxFrame) = %v", err)
	}
	if want := binary.AppendUvarint([]byte{0xEE}, MaxFrame); !bytes.Equal(got, want) {
		t.Errorf("AppendFrameHeader(MaxFrame) = % x, want % x", got, want)
	}
	if len(got)-len(dst) != FrameSize(MaxFrame)-MaxFrame {
		t.Errorf("header of %d bytes, FrameSize counts %d", len(got)-len(dst), FrameSize(MaxFrame)-MaxFrame)
	}
	got, err = AppendFrameHeader(dst, MaxFrame+1)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("AppendFrameHeader(MaxFrame+1) = %v, want %v", err, ErrFrameTooLarge)
	}
	if !bytes.Equal(got, dst) {
		t.Errorf("a refused header changed dst to % x", got)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xAB}, 100000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for _, p := range payloads {
		got, err := ReadFrameInto(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame payload: got %d bytes, want %d", len(got), len(p))
		}
	}
	if _, err := ReadFrameInto(r, nil); err == nil {
		t.Error("read past final frame succeeded")
	}
}

func TestJobHeaderRoundTrip(t *testing.T) {
	r := rng.New(19)
	c := pairCodec{}
	for trial := 0; trial < 100; trial++ {
		job := r.Uint64() >> uint(r.Intn(64))
		step := r.Intn(1000)
		from := transport.MachineID(r.Intn(8))
		to := transport.MachineID(r.Intn(8))
		envs := v2Batch(r, from, to, r.Intn(20))
		row := make([]byte, r.Intn(200))
		for i := range row {
			row[i] = byte(r.Intn(256))
		}

		// The job header carries the row and wraps the batch
		// byte-identically.
		enc := AppendJobHeader(nil, job, row)
		hdr := len(enc)
		enc, err := AppendBatchV2(enc, step, from, to, envs, c)
		if err != nil {
			t.Fatal(err)
		}
		gotJob, gotRow, rest, err := PeelJobHeader(enc)
		if err != nil || gotJob != job || !bytes.Equal(gotRow, row) {
			t.Fatalf("peel: job=%d row=% x err=%v, want job=%d row=% x", gotJob, gotRow, err, job, row)
		}
		if len(rest) != len(enc)-hdr {
			t.Fatalf("peel: rest %d bytes, want %d", len(rest), len(enc)-hdr)
		}
		gotStep, gotFrom, gotEnvs, err := DecodeBatchAnyInto(rest, c, from, to, nil)
		if err != nil {
			t.Fatal(err)
		}
		if gotStep != step || gotFrom != from || len(gotEnvs) != len(envs) {
			t.Fatalf("inner batch: got (%d,%d,%d), want (%d,%d,%d)",
				gotStep, gotFrom, len(gotEnvs), step, from, len(envs))
		}
		for i := range envs {
			if gotEnvs[i] != envs[i] {
				t.Fatalf("envelope %d: got %+v, want %+v", i, gotEnvs[i], envs[i])
			}
		}
	}
}

// TestJobHeaderRequired: every batch frame names its job, job 0 (a
// single run) included, so a bare batch is refused — and an abort frame,
// which readers tell apart by its first byte before peeling, is not
// mistaken for a batch either.
func TestJobHeaderRequired(t *testing.T) {
	c := pairCodec{}
	bare, err := AppendBatchV2(nil, 5, 1, 2, nil, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := PeelJobHeader(bare); err == nil {
		t.Fatal("bare batch frame accepted without a job header")
	}
	zero, err := AppendBatchV2(AppendJobHeader(nil, 0, nil), 5, 1, 2, nil, c)
	if err != nil {
		t.Fatal(err)
	}
	if job, row, rest, err := PeelJobHeader(zero); err != nil || job != 0 || len(row) != 0 || !bytes.Equal(rest, bare) {
		t.Fatalf("job-0 frame: job=%d row=% x rest=% x err=%v, want job 0 and no row around % x", job, row, rest, err, bare)
	}
	ab := AppendAbort(nil, 7, 3)
	if ab[0] == BatchJobbed || ab[0] == BatchV2 {
		t.Fatalf("abort marker 0x%02x collides with a batch frame's first byte", ab[0])
	}
	if _, _, _, err := PeelJobHeader(ab); err == nil {
		t.Fatal("abort frame peeled as a batch")
	}
}

func TestJobHeaderRejectsCorruption(t *testing.T) {
	// A truncated uvarint after the marker, a row length beyond the
	// frame, or no header at all.
	for _, src := range [][]byte{
		{BatchJobbed},
		{BatchJobbed, 0x80},
		{BatchJobbed, 0xFF, 0xFF},
		{BatchJobbed, 1},
		{BatchJobbed, 1, 0x80},
		{BatchJobbed, 1, 3, 'r', 'o'},
		{},
	} {
		if _, _, _, err := PeelJobHeader(src); err == nil {
			t.Errorf("corrupt header % x accepted", src)
		}
	}
	// A jobbed frame handed to a job-less decoder is an unknown version.
	c := pairCodec{}
	enc, err := AppendBatchV2(AppendJobHeader(nil, 42, []byte("row")), 1, 0, 1, nil, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := DecodeBatchAnyInto(enc, c, 0, 1, nil); err == nil {
		t.Error("job-less decoder accepted a jobbed frame")
	}
}

// BenchmarkDecodeBatch times the one batch decoder on the transport's
// common frame shape — every envelope from the sender, one word each,
// a one-byte and a nine-byte varint per message — at a PageRank-sized
// batch and a bulk-sort-sized one, in ns per envelope.
func BenchmarkDecodeBatch(b *testing.B) {
	for _, n := range []int{64, 1 << 16} {
		b.Run(fmt.Sprintf("envs=%d", n), func(b *testing.B) {
			envs := make([]transport.Envelope[pairMsg], n)
			for i := range envs {
				envs[i] = transport.Envelope[pairMsg]{From: 1, To: 2, Words: 1,
					Msg: pairMsg{A: int64(i%100) - 50, B: uint64(i) * 0x9e3779b97f4a7c15 >> 1}}
			}
			frame, err := AppendBatchV2(nil, 7, 1, 2, envs, pairCodec{})
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]transport.Envelope[pairMsg], 0, n)
			for b.Loop() {
				if _, dst, err = AppendDecodedBatch(dst[:0], frame, pairCodec{}, 1, 2); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/env")
		})
	}
}

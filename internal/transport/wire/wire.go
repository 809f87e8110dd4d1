package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"kmachine/internal/transport"
)

// Codec serialises one algorithm's message type M. Append writes m to
// dst and returns the extended slice; Decode reads one message from the
// front of src and returns it with the number of bytes consumed. A
// Decode reads through a Cursor — c := Cursor{Src: src}, the message's
// fields read in order, then return m, c.Off, c.Err — so every codec
// shares one set of varint readers and one truncation check.
//
// A Codec must round-trip exactly: Decode(Append(nil, m)) == (m,
// len(Append(nil, m)), nil) for every message the algorithm can emit.
// Decode must return a self-contained value that does not alias src —
// transports recycle their frame buffers across supersteps (see
// ReadFrameInto), so a message holding a sub-slice of src would be
// corrupted one superstep later.
// The per-algorithm implementations live next to their message types
// (pagerank.WireCodec, dsort.WireCodec, conncomp.WireCodec,
// triangle.WireCodec) so unexported message structs stay unexported.
type Codec[M any] interface {
	Append(dst []byte, m M) ([]byte, error)
	Decode(src []byte) (M, int, error)
}

// MaxFrame is the largest frame Read/WriteFrame accept: 1 GiB, far
// above any single superstep batch yet small enough to reject a
// corrupted length prefix before allocating.
const MaxFrame = 1 << 30

// ErrFrameTooLarge reports a length prefix above MaxFrame.
var ErrFrameTooLarge = fmt.Errorf("wire: frame exceeds %d bytes", MaxFrame)

var (
	errVarint    = errors.New("wire: truncated or overlong varint")
	errTruncated = errors.New("wire: truncated cursor read")
)

// AppendUvarint appends x in unsigned LEB128.
func AppendUvarint(dst []byte, x uint64) []byte {
	return binary.AppendUvarint(dst, x)
}

// AppendVarint appends x in zigzag LEB128 (negative-friendly).
func AppendVarint(dst []byte, x int64) []byte {
	return binary.AppendVarint(dst, x)
}

// Cursor is the module's one way to decode bytes: message codecs, batch,
// job, blame and hello frames, rows, Stats and checkpoints all read
// through it. It is a latching cursor over a byte slice: each read
// advances Off, the first failure sticks in Err and turns every later
// read into a zero-value no-op that leaves Off where it was, so a decode
// body reads linearly and checks Err once at the end.
type Cursor struct {
	Src []byte
	Off int
	Err error
}

// Uvarint reads one unsigned LEB128 value. A one-byte value — most
// counts, words and small IDs — skips the general decode loop.
func (c *Cursor) Uvarint() uint64 {
	if c.Err != nil {
		return 0
	}
	src := c.Src[c.Off:]
	if len(src) > 0 && src[0] < 0x80 {
		c.Off++
		return uint64(src[0])
	}
	v, n := binary.Uvarint(src)
	if n <= 0 {
		c.Err = errVarint
		return 0
	}
	c.Off += n
	return v
}

// Varint reads one zigzag LEB128 value.
func (c *Cursor) Varint() int64 {
	u := c.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Byte reads one raw byte.
func (c *Cursor) Byte() byte {
	if c.Err == nil && c.Off >= len(c.Src) {
		c.Err = errTruncated
	}
	if c.Err != nil {
		return 0
	}
	b := c.Src[c.Off]
	c.Off++
	return b
}

// Uint64 reads 8 raw little-endian bytes (for payloads where varint
// compression would lose bit-exactness guarantees, e.g. float bits).
func (c *Cursor) Uint64() uint64 {
	if c.Err == nil && c.Off+8 > len(c.Src) {
		c.Err = errTruncated
	}
	if c.Err != nil {
		return 0
	}
	v := binary.LittleEndian.Uint64(c.Src[c.Off:])
	c.Off += 8
	return v
}

// LenPrefixed reads one uvarint length and returns that many bytes,
// aliasing Src — the reader of PrefixLen. A length beyond the bytes
// that remain is corruption and latches.
func (c *Cursor) LenPrefixed() []byte {
	n := c.Uvarint()
	if c.Err == nil && n > uint64(len(c.Src)-c.Off) {
		c.Err = fmt.Errorf("wire: section claims %d bytes, %d remain", n, len(c.Src)-c.Off)
	}
	if c.Err != nil {
		return nil
	}
	b := c.Src[c.Off : c.Off+int(n)]
	c.Off += int(n)
	return b
}

// Finish returns the latched error, or an error if trailing bytes
// remain unconsumed — a decode that must account for the whole blob
// (checkpoint restore) calls it last.
func (c *Cursor) Finish() error {
	if c.Err != nil {
		return c.Err
	}
	if c.Off != len(c.Src) {
		return fmt.Errorf("wire: %d trailing bytes after decode", len(c.Src)-c.Off)
	}
	return nil
}

// Read decodes one codec message at c, latching the codec's error like
// any other read: how a Codec that wraps another (routing's hop frame)
// reads the inner message.
func Read[M any](c *Cursor, codec Codec[M]) M {
	var zero M
	if c.Err != nil {
		return zero
	}
	m, n, err := codec.Decode(c.Src[c.Off:])
	if err != nil {
		c.Err = err
		return zero
	}
	c.Off += n
	return m
}

// BatchV2 is the version byte every batch begins with. The layout is
// per-destination: the per-envelope To is elided (implied by the
// frame's destination), From is run-length delta-encoded, and the
// payload section is length-prefixed.
const BatchV2 = byte(0x02)

// AppendBatchV2 appends one superstep batch — the unit the TCP
// transport frames per (sender, receiver, superstep):
//
//	batchV2 := version superstep count [run* words* payloadLen payload]
//
// Two envelope header fields are elided outright, because a TCP batch
// frame is already a per-(sender, receiver, superstep) unit: the
// per-envelope To is implied by the frame's destination, and the frame
// sender is implied by the connection the frame arrives on — both are
// supplied to the decoder as arguments and reconstructed. From values
// are encoded as (delta, runLength) runs — zigzag delta against the
// previous run's From, seeded with `from` — so the common transport
// batch (every envelope From the frame's sender) costs two bytes of
// From encoding total instead of one byte per envelope. The payload
// section is length-prefixed so a decoder can validate and pre-size
// before touching codec bytes. An empty batch (the "nothing for you
// this superstep" marker, legal and dominant in frame counts for sparse
// traffic) ends right after count.
func AppendBatchV2[M any](dst []byte, step int, from, to transport.MachineID, envs []transport.Envelope[M], c Codec[M]) ([]byte, error) {
	dst = append(dst, BatchV2)
	dst = AppendUvarint(dst, uint64(step))
	dst = AppendUvarint(dst, uint64(len(envs)))
	if len(envs) == 0 {
		return dst, nil
	}

	// From runs: (delta, length) pairs over maximal runs of equal From.
	// Envelopes inside a run share the head's From, so checking heads
	// covers every From in the batch.
	prev := from
	for i := 0; i < len(envs); {
		e := &envs[i]
		if e.From < 0 {
			return dst, fmt.Errorf("wire: envelope with negative From %d", e.From)
		}
		run := 1
		for i+run < len(envs) && envs[i+run].From == e.From {
			run++
		}
		dst = AppendVarint(dst, int64(e.From)-int64(prev))
		dst = AppendUvarint(dst, uint64(run))
		prev = e.From
		i += run
	}

	// Words, one per envelope; To and Words are validated here, where
	// every envelope is visited.
	dst = slices.Grow(dst, len(envs))
	for i := range envs {
		e := &envs[i]
		if e.To != to {
			return dst, fmt.Errorf("wire: v2 batch for machine %d holds envelope addressed to %d", to, e.To)
		}
		if e.Words < 0 {
			return dst, fmt.Errorf("wire: envelope with negative Words %d", e.Words)
		}
		dst = AppendUvarint(dst, uint64(e.Words))
	}

	// Payload section, encoded into the tail of dst and then
	// length-prefixed. The first message's size times the batch length
	// is reserved in one step: a bulk batch of like-sized messages (keys,
	// tokens, labels) then never walks an append-growth chain, and a
	// recycled buffer that already fits is left alone.
	mark := len(dst)
	var err error
	for i := range envs {
		if dst, err = c.Append(dst, envs[i].Msg); err != nil {
			return dst, err
		}
		if i == 0 {
			dst = slices.Grow(dst, (len(envs)-1)*(len(dst)-mark)+binary.MaxVarintLen64)
		}
	}
	return PrefixLen(dst, mark), nil
}

// PrefixLen inserts the uvarint length of dst[mark:] in front of it, so
// a section of unknown size is encoded straight into the tail of dst
// and length-prefixed afterwards — one small copy of just that section,
// no scratch buffer. Cursor.LenPrefixed reads it back.
func PrefixLen(dst []byte, mark int) []byte {
	section := len(dst) - mark
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(section))
	dst = append(dst, hdr[:n]...)              // grow by prefix size
	copy(dst[mark+n:], dst[mark:mark+section]) // shift the section right
	copy(dst[mark:], hdr[:n])                  // install the prefix
	return dst
}

// DecodeBatchAnyInto decodes a version-framed batch produced by
// AppendBatchV2 into dst[:0], so a caller decoding one batch at a time
// can recycle its envelope scratch instead of allocating a fresh slice
// every frame. `from` and `to` identify the connection the frame arrived
// on — the machine at the far end and this machine — and reconstruct
// the fields the layout elides; gotFrom echoes from.
func DecodeBatchAnyInto[M any](src []byte, c Codec[M], from, to transport.MachineID, dst []transport.Envelope[M]) (step int, gotFrom transport.MachineID, envs []transport.Envelope[M], err error) {
	step, envs, err = AppendDecodedBatch(dst[:0], src, c, from, to)
	if err != nil {
		return 0, 0, nil, err
	}
	return step, from, envs, nil
}

// BatchHeader reads what every batch frame starts with — version byte,
// superstep, envelope count — and returns them with the header's length.
// It rejects an unknown version and a count the rest of the frame
// cannot hold (each envelope costs at least its Words byte), so a
// receiver may size storage from count before any envelope is decoded.
func BatchHeader(src []byte) (step, count, n int, err error) {
	c := Cursor{Src: src}
	if v := c.Byte(); c.Err == nil && v != BatchV2 {
		return 0, 0, 0, fmt.Errorf("wire: unknown batch version 0x%02x", v)
	}
	s, cnt := c.Uvarint(), c.Uvarint()
	if c.Err == nil && cnt > uint64(len(src)-c.Off) {
		c.Err = fmt.Errorf("wire: v2 batch claims %d envelopes in %d bytes", cnt, len(src)-c.Off)
	}
	if c.Err != nil {
		return 0, 0, 0, c.Err
	}
	return int(s), int(cnt), c.Off, nil
}

// AppendDecodedBatch is the one batch decoder: it appends src's
// envelopes at len(dst) and returns the extended slice, so a transport
// that summed its peers' BatchHeader counts decodes every frame
// straight into its slot of one inbox. dst[:len(dst)] is never written;
// on error dst is returned as it came. Decoded envelopes are
// self-contained values (a Codec must not alias src), so the caller may
// reuse the frame buffer once this returns.
func AppendDecodedBatch[M any](dst []transport.Envelope[M], src []byte, codec Codec[M], from, to transport.MachineID) (step int, envs []transport.Envelope[M], err error) {
	step, count, pos, err := BatchHeader(src)
	if err != nil {
		return 0, dst, err
	}
	c := Cursor{Src: src, Off: pos}
	if count == 0 {
		if err := c.Finish(); err != nil {
			return 0, dst, err
		}
		return step, dst, nil
	}
	off := len(dst)
	envs = slices.Grow(dst, count)

	// From runs: fill the envelope headers first.
	prev := int64(from)
	for covered := 0; covered < count; {
		f, length := prev+c.Varint(), c.Uvarint()
		if c.Err != nil {
			return 0, dst, c.Err
		}
		if f < 0 || f > math.MaxInt32 {
			return 0, dst, fmt.Errorf("wire: v2 batch From %d out of range", f)
		}
		if length == 0 || length > uint64(count-covered) {
			return 0, dst, fmt.Errorf("wire: v2 batch run of %d envelopes with %d uncovered", length, count-covered)
		}
		for i := uint64(0); i < length; i++ {
			envs = append(envs, transport.Envelope[M]{From: transport.MachineID(f), To: to})
		}
		prev = f
		covered += int(length)
	}
	fresh := envs[off:]

	// Words, one per envelope.
	for i := range fresh {
		w := c.Uvarint()
		if w > math.MaxInt32 {
			return 0, dst, fmt.Errorf("wire: envelope words %d out of range", w)
		}
		fresh[i].Words = int32(w)
	}

	// Length-prefixed payload section: the prefix must account for
	// exactly the remaining bytes, and the codec must consume exactly
	// the prefix. The codec is called here directly rather than through
	// Read: one call less per envelope on the hottest decode loop.
	payload := Cursor{Src: c.LenPrefixed()}
	if err := c.Finish(); err != nil {
		return 0, dst, err
	}
	for i := range fresh {
		m, n, err := codec.Decode(payload.Src[payload.Off:])
		if err != nil {
			return 0, dst, err
		}
		fresh[i].Msg = m
		payload.Off += n
	}
	if err := payload.Finish(); err != nil {
		return 0, dst, err
	}
	return step, envs, nil
}

// BatchJobbed marks a batch frame's header: the byte sits where a
// batch version byte otherwise would, followed by the uvarint job ID,
// the length-prefixed row and then a complete versioned batch
// (unchanged). Every batch frame carries one — job 0, a single run,
// included — so frames from different jobs can share one standing
// mesh's persistent per-peer connections: a reader attached for job J
// rejects a straggler frame from job I != J instead of silently
// decoding it into the wrong run.
const BatchJobbed = byte(0x03)

// AppendJobHeader appends a batch frame's header: the BatchJobbed
// marker, the job ID and the sender's row — its account of the
// superstep, opaque to this package — length-prefixed. The caller
// appends a versioned batch (AppendBatchV2) immediately after.
func AppendJobHeader(dst []byte, job uint64, row []byte) []byte {
	dst = append(dst, BatchJobbed)
	dst = AppendUvarint(dst, job)
	dst = AppendUvarint(dst, uint64(len(row)))
	return append(dst, row...)
}

// PeelJobHeader splits a batch frame into its job, its row and the
// inner versioned batch; row and batch alias src. A frame that does not
// start with a job header, or whose row runs past its end, is an error.
func PeelJobHeader(src []byte) (job uint64, row, batch []byte, err error) {
	c := Cursor{Src: src}
	if b := c.Byte(); c.Err == nil && b != BatchJobbed {
		return 0, nil, nil, fmt.Errorf("wire: frame starts with 0x%02x, not a job header", b)
	}
	job = c.Uvarint()
	row = c.LenPrefixed()
	if c.Err != nil {
		return 0, nil, nil, fmt.Errorf("wire: corrupt job header: %w", c.Err)
	}
	return job, row, src[c.Off:], nil
}

// BatchAbort marks a blame frame: a failing endpoint's last words on a
// data connection, naming the machine it holds responsible before the
// connection closes. Readers that find one instead of a batch re-raise
// the blame as a machine-attributed error, which is what keeps failure
// attribution correct across cascading teardowns — the abort bytes
// precede the closing FIN in stream order, so a peer can always
// distinguish "this machine died" (bare EOF) from "this machine is
// tearing down because someone else died" (abort frame, then EOF).
const BatchAbort = byte(0xFF)

// AppendAbort appends a blame frame: the BatchAbort marker, the
// superstep in which the failure surfaced, and the suspect machine.
func AppendAbort(dst []byte, step int, suspect transport.MachineID) []byte {
	dst = append(dst, BatchAbort)
	dst = AppendUvarint(dst, uint64(step))
	return AppendUvarint(dst, uint64(suspect))
}

// DecodeAbort decodes a blame frame produced by AppendAbort.
func DecodeAbort(src []byte) (step int, suspect transport.MachineID, err error) {
	c := Cursor{Src: src}
	if c.Byte() != BatchAbort {
		return 0, 0, fmt.Errorf("wire: not an abort frame")
	}
	s, m := c.Uvarint(), c.Uvarint()
	if c.Err != nil {
		return 0, 0, c.Err
	}
	if m > math.MaxInt32 {
		return 0, 0, fmt.Errorf("wire: abort suspect %d out of range", m)
	}
	return int(s), transport.MachineID(m), nil
}

// UvarintLen returns the encoded size of x in bytes without encoding it.
func UvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// FrameSize returns the bytes a payload of the given length occupies on
// the wire once framed by WriteFrame: the uvarint length prefix plus the
// payload itself. Transports use it to account actual bytes-on-wire.
func FrameSize(payloadLen int) int {
	return UvarintLen(uint64(payloadLen)) + payloadLen
}

// AppendFrameHeader appends an n-byte frame's length prefix, the
// uvarint n, to dst, or returns dst and ErrFrameTooLarge above
// MaxFrame: the one frame-length rule, for WriteFrame and the socket
// link's vectored writes alike.
func AppendFrameHeader(dst []byte, n int) ([]byte, error) {
	if n > MaxFrame {
		return dst, ErrFrameTooLarge
	}
	return binary.AppendUvarint(dst, uint64(n)), nil
}

// WriteFrame writes a length-prefixed frame: uvarint payload length
// followed by the payload bytes. A byte-writer (bufio.Writer) takes the
// header byte by byte, keeping hdr off the heap; any other writer gets
// a copy, as hdr itself would escape through the io.Writer interface.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [binary.MaxVarintLen64]byte
	h, err := AppendFrameHeader(hdr[:0], len(payload))
	if err != nil {
		return err
	}
	if bw, ok := w.(io.ByteWriter); ok {
		for _, b := range h {
			if err := bw.WriteByte(b); err != nil {
				return err
			}
		}
	} else if _, err := w.Write(slices.Clone(h)); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// ReadFrameInto reads one length-prefixed frame from r, reusing buf's
// storage when it has the capacity, so a connection reading one frame
// per superstep can recycle its read buffer. The returned slice aliases buf on reuse; it is valid
// until the next ReadFrameInto call with the same buffer.
func ReadFrameInto(r io.ByteReader, buf []byte) ([]byte, error) {
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if size > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	payload := buf[:0]
	if uint64(cap(payload)) < size {
		payload = make([]byte, size)
	} else {
		payload = payload[:size]
	}
	br, ok := r.(io.Reader)
	if !ok {
		return nil, fmt.Errorf("wire: ReadFrameInto needs an io.Reader, got %T", r)
	}
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

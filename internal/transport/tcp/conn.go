package tcp

import (
	"bufio"
	"encoding/binary"
	"net"
	"time"

	"kmachine/internal/transport/wire"
)

// readBufSize holds a superstep's small frames (rows, sparse batches)
// in one read syscall; a larger frame bypasses the buffer, read by
// io.ReadFull straight into its frame buffer.
const readBufSize = 4 << 10

// outConn is a dialed end, which this machine only writes: peer j's
// batch, row, blame and hello frames, by writev with no write buffer.
type outConn struct {
	c  net.Conn
	tx []byte // j's batch encode buffer; only the writer of j's batch touches it
	// wsem, a one-slot semaphore, is the write lock: the goroutine
	// writing this superstep's frames and a failing endpoint's blame
	// broadcast may write concurrently, and the broadcast waits for the
	// lock only until its deadline. It guards writeFrames' scratch.
	wsem chan struct{}
	hdr  [2 * binary.MaxVarintLen64]byte
	vec  [4][]byte   // backing array of iov
	iov  net.Buffers // headers and payloads being written
}

// inConn is an accepted end, which this machine only reads: peer j's
// frames, by j's reader goroutine into j's batch and row buffers.
type inConn struct {
	c               net.Conn
	r               *bufio.Reader
	frame, rowFrame []byte
}

func newOutConn(c net.Conn) *outConn {
	return &outConn{c: c, wsem: make(chan struct{}, 1)}
}

func newInConn(c net.Conn) *inConn {
	return &inConn{c: c, r: bufio.NewReaderSize(c, readBufSize)}
}

// writeFrameLocked writes frames under the write lock, which keeps
// them whole on the stream against a concurrent blame broadcast.
func (oc *outConn) writeFrameLocked(dl time.Time, payloads ...[]byte) error {
	oc.wsem <- struct{}{}
	err := oc.writeFrames(dl, payloads...)
	<-oc.wsem
	return err
}

// writeFrames writes each payload as one length-prefixed frame, all in
// one writev, allocation-free for up to two frames (a batch and its
// row). Every header is built first, so a frame wire.AppendFrameHeader
// refuses leaves nothing of the call on the stream. Call under wsem.
func (oc *outConn) writeFrames(dl time.Time, payloads ...[]byte) error {
	defer clear(oc.vec[:]) // pin no caller's payload past the call
	hdr := oc.hdr[:0]
	oc.iov = oc.vec[:0]
	for _, p := range payloads {
		n := len(hdr)
		var err error
		if hdr, err = wire.AppendFrameHeader(hdr, len(p)); err != nil {
			return err
		}
		oc.iov = append(oc.iov, hdr[n:], p)
	}
	if err := oc.c.SetWriteDeadline(dl); err != nil {
		return err
	}
	_, err := oc.iov.WriteTo(oc.c)
	return err
}

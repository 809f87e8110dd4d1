package tcp

import (
	"bufio"
	"encoding/binary"
	"net"
	"time"

	"kmachine/internal/transport/wire"
)

// readBufSize holds a superstep's small frames (sparse batches) in one
// read syscall; a larger frame bypasses the buffer, read by
// io.ReadFull straight into its frame buffer.
const readBufSize = 4 << 10

// outConn is a dialed end, which this machine only writes: peer j's
// batch, blame and hello frames, by writev with no write buffer.
type outConn struct {
	c  net.Conn
	tx []byte // j's batch encode buffer; only the writer of j's batch touches it
	// wsem, a one-slot semaphore, is the write lock: the goroutine
	// writing this superstep's frame and a failing endpoint's blame
	// broadcast may write concurrently, and the broadcast waits for the
	// lock only until its deadline. It guards writeFrame's scratch.
	wsem chan struct{}
	hdr  [binary.MaxVarintLen64]byte
	vec  [2][]byte   // backing array of iov
	iov  net.Buffers // header and payload being written
}

// inConn is an accepted end, which this machine only reads: peer j's
// frames, by j's reader goroutine into j's frame buffer.
type inConn struct {
	c     net.Conn
	r     *bufio.Reader
	frame []byte
}

func newOutConn(c net.Conn) *outConn {
	return &outConn{c: c, wsem: make(chan struct{}, 1)}
}

func newInConn(c net.Conn) *inConn {
	return &inConn{c: c, r: bufio.NewReaderSize(c, readBufSize)}
}

// writeFrameLocked writes one frame under the write lock, which keeps
// it whole on the stream against a concurrent blame broadcast.
func (oc *outConn) writeFrameLocked(dl time.Time, payload []byte) error {
	oc.wsem <- struct{}{}
	err := oc.writeFrame(dl, payload)
	<-oc.wsem
	return err
}

// writeFrame writes payload as one length-prefixed frame in one
// writev, allocation-free. A frame wire.AppendFrameHeader refuses
// leaves nothing on the stream. Call under wsem.
func (oc *outConn) writeFrame(dl time.Time, payload []byte) error {
	defer clear(oc.vec[:]) // pin no caller's payload past the call
	hdr, err := wire.AppendFrameHeader(oc.hdr[:0], len(payload))
	if err != nil {
		return err
	}
	oc.vec = [2][]byte{hdr, payload}
	oc.iov = oc.vec[:]
	if err := oc.c.SetWriteDeadline(dl); err != nil {
		return err
	}
	_, err = oc.iov.WriteTo(oc.c)
	return err
}

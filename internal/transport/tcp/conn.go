package tcp

import (
	"bufio"
	"net"
	"time"

	"kmachine/internal/transport/wire"
)

// bufWriter / bufReader are the buffered halves of a connection; named
// so the Endpoint fields read as intent rather than bufio plumbing.
type bufWriter = bufio.Writer
type bufReader = bufio.Reader

const connBufSize = 64 << 10

func newDataConn(c net.Conn) *dataConn {
	if tc, ok := c.(*net.TCPConn); ok {
		// Batches are written once per superstep and flushed whole;
		// Nagle only adds latency to the small row frames.
		tc.SetNoDelay(true)
	}
	return &dataConn{
		c: c,
		w: bufio.NewWriterSize(c, connBufSize),
		r: bufio.NewReaderSize(c, connBufSize),
	}
}

// writeFrameLocked ships frames under the connection's write mutex,
// flushed once: the goroutine writing this superstep's frames and a
// concurrent blame broadcast (castBlame) may target the same
// connection, and the mutex is what keeps their frames whole on the
// stream.
func (dc *dataConn) writeFrameLocked(dl time.Time, payloads ...[]byte) error {
	dc.wmu.Lock()
	defer dc.wmu.Unlock()
	return dc.writeFrames(dl, payloads)
}

// tryWriteFrameLocked is writeFrameLocked for callers that must not
// block on the mutex: if a write is mid-frame (or wedged in one), it
// reports false without writing. The blame broadcast uses it — a
// teardown must never wait on a connection whose write is stuck.
func (dc *dataConn) tryWriteFrameLocked(dl time.Time, payload []byte) (bool, error) {
	if !dc.wmu.TryLock() {
		return false, nil
	}
	defer dc.wmu.Unlock()
	return true, dc.writeFrames(dl, [][]byte{payload})
}

func (dc *dataConn) writeFrames(dl time.Time, payloads [][]byte) error {
	if err := dc.c.SetWriteDeadline(dl); err != nil {
		return err
	}
	for _, p := range payloads {
		if err := wire.WriteFrame(dc.w, p); err != nil {
			return err
		}
	}
	return dc.w.Flush()
}

package tcp

import (
	"io"
	"net"
	"os"
	"sync"
	"syscall"
	"time"
)

// ringCap bounds each direction of an in-memory connection. A ring is
// heap memory, which a socket's kernel buffer is not, and a standing
// mesh's rings fill to the cap: larger rings bought no speed, even on
// bulk frames, but cost resident memory (a k = 8 job daemon's peak RSS
// rose twice as much at 16 KiB) and, at 64 KiB, broke the socket
// link's per-probe heap budget (TestRandomRouteBytesPerProbe).
const ringCap = 4 << 10

var fabricAddr net.Addr = &net.UnixAddr{Name: "fabric", Net: "fabric"}

// fabricConn is one end of an in-memory connection, reading one ring
// and writing the other. It behaves as a socket with a kernel buffer
// does: a write returns once its bytes are buffered, a deadline fails a
// waiting call with os.ErrDeadlineExceeded, a local Close fails the
// end's calls with net.ErrClosed, and the peer of a closed end reads
// what was buffered, then io.EOF, while its writes fail with EPIPE.
type fabricConn struct{ in, out *ring }

// fabricPipe returns the two ends of a new in-memory connection.
func fabricPipe() (net.Conn, net.Conn) {
	x, y := new(ring), new(ring)
	x.cond.L, y.cond.L = &x.mu, &y.mu
	return &fabricConn{x, y}, &fabricConn{y, x}
}

func (c *fabricConn) Read(p []byte) (int, error)         { return c.in.read(p) }
func (c *fabricConn) Write(p []byte) (int, error)        { return c.out.write(p) }
func (c *fabricConn) LocalAddr() net.Addr                { return fabricAddr }
func (c *fabricConn) RemoteAddr() net.Addr               { return fabricAddr }
func (c *fabricConn) SetReadDeadline(t time.Time) error  { return c.in.arm(&c.in.rdl, t) }
func (c *fabricConn) SetWriteDeadline(t time.Time) error { return c.out.arm(&c.out.wdl, t) }

func (c *fabricConn) SetDeadline(t time.Time) error {
	c.in.arm(&c.in.rdl, t)
	return c.out.arm(&c.out.wdl, t)
}

func (c *fabricConn) Close() error {
	if read, write := c.in.shut(&c.in.rclosed), c.out.shut(&c.out.wclosed); !read || !write {
		return net.ErrClosed
	}
	return nil
}

// ring is one direction: n bytes buffered from buf[head], wrapping to
// buf[0]. buf starts empty and grows to what the writes need, up to
// ringCap. cond wakes the waiting reader or writer on every change
// either can act on: bytes, room, a close, a deadline set or passed.
type ring struct {
	mu               sync.Mutex
	cond             sync.Cond
	buf              []byte
	head, n          int
	rclosed, wclosed bool // the reading end, the writing end
	rdl, wdl         deadline
}

// deadline is one side's deadline and the timer that wakes its waiter
// when it passes, made once and re-armed: a wait allocates nothing.
type deadline struct {
	t     time.Time
	timer *time.Timer
}

func (d *deadline) passed() bool { return !d.t.IsZero() && !time.Now().Before(d.t) }

func (r *ring) arm(d *deadline, t time.Time) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	d.t = t
	switch {
	case t.IsZero():
		if d.timer != nil {
			d.timer.Stop()
		}
	case d.timer == nil:
		d.timer = time.AfterFunc(time.Until(t), func() {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.cond.Broadcast()
		})
	default:
		d.timer.Reset(time.Until(t))
	}
	r.cond.Broadcast()
	return nil
}

// shut closes one end, reporting false if it was closed already. Bytes
// no reader will read are dropped.
func (r *ring) shut(end *bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	was := *end
	*end = true
	if r.rclosed {
		r.buf, r.head, r.n = nil, 0, 0
	}
	r.cond.Broadcast()
	return !was
}

// take moves up to len(p) buffered bytes into p.
func (r *ring) take(p []byte) int {
	got := 0
	for got < len(p) && r.n > 0 {
		c := copy(p[got:], r.buf[r.head:min(len(r.buf), r.head+r.n)])
		r.head, r.n, got = (r.head+c)%len(r.buf), r.n-c, got+c
	}
	return got
}

func (r *ring) read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		switch {
		case r.rclosed:
			return 0, net.ErrClosed
		case r.n > 0 || len(p) == 0:
			r.cond.Broadcast()
			return r.take(p), nil
		case r.wclosed:
			return 0, io.EOF
		case r.rdl.passed():
			return 0, os.ErrDeadlineExceeded
		}
		r.cond.Wait()
	}
}

func (r *ring) write(p []byte) (done int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		switch {
		case r.wclosed:
			return done, net.ErrClosed
		case r.rclosed:
			return done, syscall.EPIPE
		case done == len(p):
			return done, nil
		case r.wdl.passed():
			return done, os.ErrDeadlineExceeded
		}
		if size, need := len(r.buf), r.n+len(p)-done; need > size && size < ringCap {
			buf := make([]byte, min(ringCap, max(2*size, need)))
			n := r.take(buf)
			r.buf, r.head, r.n = buf, 0, n
		}
		for done < len(p) && r.n < len(r.buf) {
			tail := (r.head + r.n) % len(r.buf)
			c := copy(r.buf[tail:min(len(r.buf), tail+len(r.buf)-r.n)], p[done:])
			r.n, done = r.n+c, done+c
		}
		r.cond.Broadcast()
		if done < len(p) {
			r.cond.Wait()
		}
	}
}

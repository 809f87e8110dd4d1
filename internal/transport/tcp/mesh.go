package tcp

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"kmachine/internal/transport/wire"
)

// Mesh is one machine's standing socket fabric: the k-1 data
// connections it writes and the k-1 it reads — no machine holds any
// other — plus, for a ListenMesh, its listener. A connection is a TCP
// socket from ListenMesh and Connect, or an in-memory one from
// NewLoopbackMesh. A dialed end (outConn) writes by writev from its
// encode buffer; an accepted end (inConn) owns a reader and its read
// buffers.
// These buffers live as long as the mesh, at the high-water mark of its
// largest job. The mesh is deliberately NOT generic in the message type
// — connections and buffers carry bytes, not envelopes — which is what
// lets a resident daemon keep one mesh alive while typed Endpoints of
// different algorithms attach to it job after job (see Attach). A
// single run is job 0 on a mesh of its own.
//
// A Mesh has two terminal states: detached-from (healthy, reusable) and
// closed (poisoned). Any endpoint failure closes the whole mesh —
// closing the connections is what unblocks peers parked in reads — so an
// owner finding Healthy() false must rebuild the mesh before the next
// job (node.LocalMesh does).
type Mesh struct {
	id int
	k  int
	ln net.Listener

	out []*outConn // out[j]: dialed conn for writing to peer j
	in  []*inConn  // in[j]: accepted conn for reading from peer j

	mu        sync.Mutex
	connected bool
	closed    bool
	closeOnce sync.Once
	closeErr  error
}

// ListenMesh opens machine id's listener on addr ("host:0" picks a free
// port). Connect must be called before an Endpoint can attach.
func ListenMesh(id, k int, addr string) (*Mesh, error) {
	if k < 2 || id < 0 || id >= k {
		return nil, fmt.Errorf("tcp: invalid mesh id %d for k=%d", id, k)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcp: machine %d listen %s: %w", id, addr, err)
	}
	return newMesh(id, k, ln), nil
}

func newMesh(id, k int, ln net.Listener) *Mesh {
	return &Mesh{id: id, k: k, ln: ln, out: make([]*outConn, k), in: make([]*inConn, k)}
}

// Addr returns ListenMesh's concrete listener address (useful with ":0").
func (m *Mesh) Addr() string { return m.ln.Addr().String() }

// ID returns the machine ID this mesh serves.
func (m *Mesh) ID() int { return m.id }

// K returns the cluster size.
func (m *Mesh) K() int { return m.k }

// Healthy reports whether the mesh is connected and not closed: the
// owner's "may I run the next job on this fabric, or must I rebuild?"
// check. A mesh poisoned by any endpoint failure stays
// unhealthy forever — failed connections are not restartable.
func (m *Mesh) Healthy() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.connected && !m.closed
}

// Connect completes the mesh: it dials a data connection to every peer
// in peers (indexed by machine ID; peers[m.id] is ignored) while
// accepting the mirror-image connections on its own listener. Dials are
// retried until timeout so nodes may start in any order.
func (m *Mesh) Connect(peers []string, timeout time.Duration) error {
	if len(peers) != m.k {
		return fmt.Errorf("tcp: machine %d got %d peer addresses for k=%d", m.id, len(peers), m.k)
	}
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	deadline := time.Now().Add(timeout)

	var wg sync.WaitGroup
	var dialErr, acceptErr error

	wg.Add(1)
	go func() {
		defer wg.Done()
		dialErr = m.dialAll(peers, deadline)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		acceptErr = m.acceptAll(deadline)
	}()
	wg.Wait()

	if dialErr != nil || acceptErr != nil {
		m.Close()
		if dialErr != nil {
			return dialErr
		}
		return acceptErr
	}
	m.mu.Lock()
	m.connected = true
	m.mu.Unlock()
	return nil
}

func (m *Mesh) dialAll(peers []string, deadline time.Time) error {
	// The hello frame that opens a connection is the dialer's machine ID.
	hello := wire.AppendUvarint(nil, uint64(m.id))
	dial := func(addr string) (*outConn, error) {
		var lastErr error
		for time.Now().Before(deadline) {
			c, err := net.DialTimeout("tcp", addr, time.Until(deadline))
			if err != nil {
				lastErr = err
				time.Sleep(20 * time.Millisecond)
				continue
			}
			oc := newOutConn(c)
			if err := oc.writeFrameLocked(deadline, hello); err != nil {
				c.Close()
				return nil, err
			}
			return oc, nil
		}
		return nil, fmt.Errorf("tcp: machine %d dial %s timed out: %v", m.id, addr, lastErr)
	}
	for j := 0; j < m.k; j++ {
		if j == m.id {
			continue
		}
		dc, err := dial(peers[j])
		if err != nil {
			return err
		}
		m.out[j] = dc
	}
	return nil
}

func (m *Mesh) acceptAll(deadline time.Time) error {
	type deadliner interface{ SetDeadline(time.Time) error }
	if d, ok := m.ln.(deadliner); ok {
		if err := d.SetDeadline(deadline); err != nil {
			return fmt.Errorf("tcp: machine %d set accept deadline: %w", m.id, err)
		}
		defer d.SetDeadline(time.Time{})
	}
	for got := 0; got < m.k-1; got++ {
		c, err := m.ln.Accept()
		if err != nil {
			return fmt.Errorf("tcp: machine %d accept: %w", m.id, err)
		}
		ic := newInConn(c)
		hello, err := wire.ReadFrameInto(ic.r, nil)
		if err != nil {
			c.Close()
			return fmt.Errorf("tcp: machine %d bad hello: %w", m.id, err)
		}
		hc := wire.Cursor{Src: hello}
		from := hc.Uvarint()
		if hc.Finish() != nil || from >= uint64(m.k) || from == uint64(m.id) {
			c.Close()
			return fmt.Errorf("tcp: machine %d hello from invalid peer %d", m.id, from)
		}
		if m.in[from] != nil {
			c.Close()
			return fmt.Errorf("tcp: machine %d got duplicate conn from %d", m.id, from)
		}
		m.in[from] = ic
	}
	return nil
}

// Close tears down the listener and every connection, unblocking all
// pending I/O on them. Idempotent: concurrent and repeated calls are
// safe and return the first call's result.
func (m *Mesh) Close() error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.closeOnce.Do(func() {
		var errs []string
		record := func(err error) {
			if err != nil {
				errs = append(errs, err.Error())
			}
		}
		if m.ln != nil {
			record(m.ln.Close())
		}
		for _, oc := range m.out {
			if oc != nil {
				record(oc.c.Close())
			}
		}
		for _, ic := range m.in {
			if ic != nil {
				record(ic.c.Close())
			}
		}
		if len(errs) > 0 {
			m.closeErr = fmt.Errorf("tcp: close machine %d: %s", m.id, strings.Join(errs, "; "))
		}
	})
	return m.closeErr
}

// NewLoopbackMesh builds the complete k-machine mesh inside one
// process, every ordered pair connected by an in-memory connection
// (fabricPipe) in place of a socket: no listener, no dial, no hello,
// the same frames. No endpoint is attached yet. Typed per-job
// Endpoints attach via Attach and detach at job end.
func NewLoopbackMesh(k int) ([]*Mesh, error) {
	if k < 2 {
		return nil, fmt.Errorf("tcp: need k >= 2 machines, got %d", k)
	}
	ms := make([]*Mesh, k)
	for i := range ms {
		ms[i] = newMesh(i, k, nil)
		ms[i].connected = true
	}
	for i, m := range ms {
		for j, peer := range ms {
			if i != j {
				w, r := fabricPipe()
				m.out[j], peer.in[i] = newOutConn(w), newInConn(r)
			}
		}
	}
	return ms, nil
}

package tcp

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"kmachine/internal/transport/wire"
)

// Mesh is one machine's standing socket fabric: its listener, the k-1
// dialed data connections and the k-1 accepted ones — no machine holds
// any other. It is deliberately NOT generic in the message type —
// connections and their buffered readers/writers carry bytes, not
// envelopes — which is what lets a resident daemon keep one mesh alive
// while typed Endpoints of different algorithms attach to it job after
// job (see Attach). A single run is job 0 on a mesh of its own.
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

	out []*dataConn // out[j]: dialed conn for writing to peer j
	in  []*dataConn // in[j]: accepted conn for reading from peer j

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
	return &Mesh{
		id:  id,
		k:   k,
		ln:  ln,
		out: make([]*dataConn, k),
		in:  make([]*dataConn, k),
	}, nil
}

// Addr returns the listener's concrete address (useful with ":0").
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
	dial := func(addr string) (*dataConn, error) {
		var lastErr error
		for time.Now().Before(deadline) {
			c, err := net.DialTimeout("tcp", addr, time.Until(deadline))
			if err != nil {
				lastErr = err
				time.Sleep(20 * time.Millisecond)
				continue
			}
			dc := newDataConn(c)
			if err := wire.WriteFrame(dc.w, hello); err != nil {
				c.Close()
				return nil, err
			}
			if err := dc.w.Flush(); err != nil {
				c.Close()
				return nil, err
			}
			return dc, nil
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
		dc := newDataConn(c)
		hello, err := wire.ReadFrame(dc.r)
		if err != nil {
			c.Close()
			return fmt.Errorf("tcp: machine %d bad hello: %w", m.id, err)
		}
		from, n, err := wire.Uvarint(hello)
		if err != nil || n != len(hello) || int(from) >= m.k || int(from) == m.id {
			c.Close()
			return fmt.Errorf("tcp: machine %d hello from invalid peer %d", m.id, from)
		}
		if m.in[from] != nil {
			c.Close()
			return fmt.Errorf("tcp: machine %d got duplicate conn from %d", m.id, from)
		}
		m.in[from] = dc
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
		for _, dc := range m.out {
			if dc != nil {
				record(dc.c.Close())
			}
		}
		for _, dc := range m.in {
			if dc != nil {
				record(dc.c.Close())
			}
		}
		if len(errs) > 0 {
			m.closeErr = fmt.Errorf("tcp: close machine %d: %s", m.id, strings.Join(errs, "; "))
		}
	})
	return m.closeErr
}

// NewLoopbackMesh builds the complete k-machine mesh over loopback TCP
// inside one process: k listeners on 127.0.0.1, every ordered pair
// connected, no endpoint attached yet. Typed per-job Endpoints attach
// via Attach and detach at job end.
func NewLoopbackMesh(k int) ([]*Mesh, error) {
	ms := make([]*Mesh, k)
	addrs := make([]string, k)
	for i := 0; i < k; i++ {
		m, err := ListenMesh(i, k, "127.0.0.1:0")
		if err != nil {
			for _, prev := range ms[:i] {
				prev.Close()
			}
			return nil, err
		}
		ms[i] = m
		addrs[i] = m.Addr()
	}
	var wg sync.WaitGroup
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = ms[i].Connect(addrs, DefaultDialTimeout)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, m := range ms {
				m.Close()
			}
			return nil, err
		}
	}
	return ms, nil
}

package tcp

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"kmachine/internal/transport"
	"kmachine/internal/transport/wire"
)

// driveJob is one superstep's assignment for a cluster-side endpoint
// driver: finish the superstep with this outbox.
type driveJob[M any] struct {
	step int
	out  []transport.Envelope[M]
}

// Transport is a transport.Transport over a k-endpoint loopback mesh:
// every envelope crosses one of its in-memory connections, every batch
// carrying an empty row, and each endpoint is owned by a persistent
// driver goroutine, signalled once per superstep. No run uses it —
// transport.TCP is k socket links (transport/node) — and New, Transport
// and its methods are kept only because the frozen benchmark/micro.go
// times Exchange on them; the next benchmark change moves those rows to
// endpoints attached to a NewLoopbackMesh (ROADMAP.md, item 1(a)) and
// deletes this file. Outside benchmark/, only this package's tests and the inmem
// contract suite may call them.
type Transport[M any] struct {
	eps []*Endpoint[M]

	drive []chan driveJob[M]
	wg    sync.WaitGroup
	errs  []error
	// inboxes are what Exchange hands the caller: endpoint i's inbox,
	// which its next FinishSuperstep decodes over.
	inboxes [][]transport.Envelope[M]

	mu        sync.Mutex
	closed    bool
	closeOnce sync.Once
}

// New builds a loopback-mesh transport for a k-machine cluster: a
// single run (job 0) on a fresh NewLoopbackMesh.
func New[M any](k int, codec wire.Codec[M]) (*Transport[M], error) {
	ms, err := NewLoopbackMesh(k)
	if err != nil {
		return nil, err
	}
	eps := make([]*Endpoint[M], k)
	for i, m := range ms {
		if eps[i], err = Attach(m, codec, 0); err != nil {
			for _, e := range eps[:i] {
				e.Close()
			}
			for _, m := range ms[i:] {
				m.Close()
			}
			return nil, err
		}
	}
	t := &Transport[M]{
		eps:     eps,
		drive:   make([]chan driveJob[M], k),
		errs:    make([]error, k),
		inboxes: make([][]transport.Envelope[M], k),
	}
	for i := 0; i < k; i++ {
		t.drive[i] = make(chan driveJob[M], 1)
		go t.driver(i)
	}
	return t, nil
}

// driver is the persistent goroutine owning endpoint i: one
// FinishSuperstep per signal, parked in between, exits when Close
// closes its channel. The same close-under-mutex discipline as the
// endpoint's readers keeps the WaitGroup sound against a concurrent
// Close.
func (t *Transport[M]) driver(i int) {
	var split transport.Splitter[M]
	for job := range t.drive[i] {
		// An outbox with an invalid destination ships empty batches, so
		// the superstep still closes everywhere, then fails.
		batches, bad := split.Split(len(t.eps), job.out)
		inbox, _, err := t.eps[i].FinishSuperstep(job.step, batches, nil)
		if bad >= 0 {
			inbox, err = nil, fmt.Errorf("tcp: machine %d envelope to invalid machine %d", i, job.out[bad].To)
		}
		// On a FinishSuperstep error the endpoint has already closed
		// itself; the close cascades error returns to every peer blocked
		// on this endpoint's connections, so no driver hangs here.
		t.errs[i] = err
		t.inboxes[i] = inbox
		t.wg.Done()
	}
}

// Exchange implements transport.Transport: one whole superstep with
// nothing emitted. Every endpoint opens the superstep — serially
// under the transport mutex, the same t.mu→e.mu lock order as Close,
// which is cheap (an endpoint's BeginSuperstep does no I/O, it only
// releases its readers) — then ships its outbox over its sockets
// concurrently (signalled to the persistent drivers) and drains its
// readers before any inbox is released to the caller.
func (t *Transport[M]) Exchange(ctx context.Context, step int, outs [][]transport.Envelope[M]) ([][]transport.Envelope[M], error) {
	k := len(t.eps)
	if len(outs) != k {
		return nil, fmt.Errorf("tcp: got %d outboxes for a %d-machine cluster", len(outs), k)
	}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("tcp: superstep %d on closed transport: %w", step, net.ErrClosed)
	}
	for i, e := range t.eps {
		if err := e.BeginSuperstep(ctx, step); err != nil {
			t.mu.Unlock()
			return nil, fmt.Errorf("tcp: machine %d: %w", i, err)
		}
	}
	for i := 0; i < k; i++ {
		t.errs[i] = nil
		t.inboxes[i] = nil
	}
	t.wg.Add(k)
	for i := 0; i < k; i++ {
		t.drive[i] <- driveJob[M]{step: step, out: outs[i]}
	}
	t.mu.Unlock()
	t.wg.Wait()

	// Prefer the error that diagnoses the failure: a machine-attributed
	// error that is not close-shrapnel (net.ErrClosed from our own
	// cascade teardown) beats an attributed shrapnel error, which beats
	// an unattributed one. When machine j dies, the survivors' errors
	// name j while j's own endpoint reports only its severed sockets.
	var attributed, first error
	for _, err := range t.errs {
		if err == nil {
			continue
		}
		var me *transport.MachineError
		if errors.As(err, &me) {
			if !errors.Is(err, net.ErrClosed) {
				return nil, err
			}
			if attributed == nil {
				attributed = err
			}
		}
		if first == nil {
			first = err
		}
	}
	if attributed != nil {
		return nil, attributed
	}
	if first != nil {
		return nil, first
	}
	return t.inboxes, nil
}

// WireStats sums the physical-layer counters of every endpoint: total
// frames and bytes that crossed the in-memory connections. In a healthy mesh
// sent and received totals match.
func (t *Transport[M]) WireStats() transport.WireStats {
	var w transport.WireStats
	for _, e := range t.eps {
		w = w.Plus(e.WireStats())
	}
	return w
}

// Close retires the drivers and tears down every endpoint.
func (t *Transport[M]) Close() error {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	t.closeOnce.Do(func() {
		for _, ch := range t.drive {
			close(ch)
		}
	})
	var first error
	for _, e := range t.eps {
		if err := e.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

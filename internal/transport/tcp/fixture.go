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
// driver: finish the superstep with this rest outbox.
type driveJob[M any] struct {
	step int
	out  []transport.Envelope[M]
}

// Transport is a transport.Transport over a k-endpoint loopback mesh:
// every envelope crosses a real loopback TCP connection, with an empty
// row behind every batch, and each endpoint is owned by a persistent
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
	// inboxes are what Finish hands the cluster: endpoint i's inbox,
	// which its next FinishSuperstep decodes over.
	inboxes [][]transport.Envelope[M]

	mu        sync.Mutex
	closed    bool
	closeOnce sync.Once
}

// New builds a loopback-TCP transport for a k-machine cluster: a
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
	for job := range t.drive[i] {
		inbox, _, err := t.eps[i].FinishSuperstep(job.step, job.out, nil)
		// On a FinishSuperstep error the endpoint has already closed
		// itself; the close cascades error returns to every peer blocked
		// on this endpoint's connections, so no driver hangs here.
		t.errs[i] = err
		t.inboxes[i] = inbox
		t.wg.Done()
	}
}

// Begin implements transport.Transport: it opens the superstep on every
// endpoint, arming the per-superstep deadline guards and releasing all
// readers so frames are consumed as they arrive. Endpoints are
// opened serially under the transport mutex — the same t.mu→e.mu lock
// order as Close — which is cheap (no I/O happens in an endpoint
// BeginSuperstep, it only parks jobs on buffered channels) and gives
// SendBatch a consistent "all open" view.
func (t *Transport[M]) Begin(ctx context.Context, step int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("tcp: begin superstep %d on closed transport: %w", step, net.ErrClosed)
	}
	for i, e := range t.eps {
		if err := e.BeginSuperstep(ctx, step); err != nil {
			return fmt.Errorf("tcp: machine %d: %w", i, err)
		}
	}
	return nil
}

// SendBatch implements transport.Transport: machine from's eager batch
// for machine to goes straight to from's endpoint, which encodes and
// writes it on the calling goroutine. Called concurrently from the
// machines' compute goroutines (distinct senders), per the contract;
// each endpoint serialises its own state under its own mutex, so no
// transport-level lock is needed — or wanted, it would serialise the
// very sends eager emission exists to overlap.
func (t *Transport[M]) SendBatch(from, to transport.MachineID, batch []transport.Envelope[M]) error {
	if int(from) < 0 || int(from) >= len(t.eps) {
		return fmt.Errorf("tcp: SendBatch from invalid machine %d", from)
	}
	return t.eps[from].StreamBatch(to, batch)
}

// Finish implements transport.Transport: the superstep's barrier. Every
// endpoint ships its rest envelopes over its sockets concurrently
// (signalled to the persistent drivers) and drains its readers (eager
// and rest frames alike) before any inbox is released to the cluster.
func (t *Transport[M]) Finish(ctx context.Context, step int, rest [][]transport.Envelope[M]) ([][]transport.Envelope[M], error) {
	k := len(t.eps)
	if len(rest) != k {
		return nil, fmt.Errorf("tcp: got %d outboxes for a %d-machine cluster", len(rest), k)
	}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("tcp: finish superstep %d on closed transport: %w", step, net.ErrClosed)
	}
	for i := 0; i < k; i++ {
		t.errs[i] = nil
		t.inboxes[i] = nil
	}
	t.wg.Add(k)
	for i := 0; i < k; i++ {
		t.drive[i] <- driveJob[M]{step: step, out: rest[i]}
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

// Exchange implements transport.Transport: Begin, then Finish.
func (t *Transport[M]) Exchange(ctx context.Context, step int, outs [][]transport.Envelope[M]) ([][]transport.Envelope[M], error) {
	if err := t.Begin(ctx, step); err != nil {
		return nil, err
	}
	return t.Finish(ctx, step, outs)
}

// WireStats sums the physical-layer counters of every endpoint: total
// frames and bytes that crossed the loopback sockets. In a healthy mesh
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

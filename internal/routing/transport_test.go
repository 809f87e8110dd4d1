package routing

import (
	"testing"

	"kmachine/internal/transport"
)

// The routing workloads over the socket link (the in-memory fabric of
// tcp.NewLoopbackMesh) must deliver the same
// payloads and report identical statistics as the loopback runs — the
// HopCodec framing and the probe codec are exercised end to end here
// (every other package had an inmem-vs-TCP test; this closes the gap
// for routing, whose two-hop machinery the others build on).

func sameRouteResult(t *testing.T, label string, tcp, mem *RandomRouteResult) {
	t.Helper()
	if tcp.Delivered != mem.Delivered {
		t.Errorf("%s: delivered over tcp %d, inmem %d", label, tcp.Delivered, mem.Delivered)
	}
	if tcp.Stats.Rounds != mem.Stats.Rounds || tcp.Stats.Words != mem.Stats.Words ||
		tcp.Stats.Messages != mem.Stats.Messages || tcp.Stats.Supersteps != mem.Stats.Supersteps ||
		tcp.Stats.MaxRecvWords != mem.Stats.MaxRecvWords {
		t.Errorf("%s stats diverge:\n tcp:   %+v\n inmem: %+v", label, *tcp.Stats, *mem.Stats)
	}
}

func TestRandomRouteOverTCPMatchesInMemory(t *testing.T) {
	const (
		k    = 6
		x    = 400
		bw   = 8
		seed = 41
	)
	mem, err := RandomRouteExperiment(k, x, bw, seed)
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := RandomRouteExperimentOn(transport.TCP, k, x, bw, seed)
	if err != nil {
		t.Fatal(err)
	}
	sameRouteResult(t, "random-route", tcp, mem)
	if mem.Delivered != k*x {
		t.Errorf("delivered %d probes, want %d", mem.Delivered, k*x)
	}
}

func TestFixedDestinationOverTCPMatchesInMemory(t *testing.T) {
	const (
		k    = 6
		x    = 300
		bw   = 8
		seed = 43
	)
	for _, twoHop := range []bool{false, true} {
		mem, err := FixedDestinationExperiment(k, x, bw, twoHop, seed)
		if err != nil {
			t.Fatal(err)
		}
		tcp, err := FixedDestinationExperimentOn(transport.TCP, k, x, bw, twoHop, seed)
		if err != nil {
			t.Fatal(err)
		}
		label := "direct"
		if twoHop {
			label = "two-hop"
		}
		sameRouteResult(t, label, tcp, mem)
		if mem.Delivered != x {
			t.Errorf("%s: delivered %d, want %d", label, mem.Delivered, x)
		}
	}
}

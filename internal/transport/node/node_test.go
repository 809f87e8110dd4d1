package node_test

import (
	"math"
	"net"
	"strings"
	"testing"

	"kmachine/internal/algo"
	"kmachine/internal/core"
	"kmachine/internal/gen"
	"kmachine/internal/pagerank"
	"kmachine/internal/partition"
	"kmachine/internal/transport/node"
	"kmachine/internal/transport/wire"
)

type echoMsg struct {
	X int64
}

type echoCodec struct{}

func (echoCodec) Append(dst []byte, m echoMsg) ([]byte, error) {
	return wire.AppendVarint(dst, m.X), nil
}

func (echoCodec) Decode(src []byte) (echoMsg, int, error) {
	c := wire.Cursor{Src: src}
	m := echoMsg{X: c.Varint()}
	return m, c.Off, c.Err
}

// ringFactory: machine i sends i+1 one-word tokens to (i+1)%k in
// superstep 0, checks what it received in superstep 1.
func ringFactory(t *testing.T, k int) func(core.MachineID) core.Machine[echoMsg] {
	return func(id core.MachineID) core.Machine[echoMsg] {
		return core.MachineFunc[echoMsg](func(ctx *core.StepContext, inbox []core.Envelope[echoMsg]) ([]core.Envelope[echoMsg], bool) {
			switch ctx.Superstep {
			case 0:
				var out []core.Envelope[echoMsg]
				for n := 0; n <= int(ctx.Self); n++ {
					out = append(out, core.Envelope[echoMsg]{
						To:    core.MachineID((int(ctx.Self) + 1) % k),
						Words: 1,
						Msg:   echoMsg{X: int64(ctx.Self)},
					})
				}
				return out, true
			default:
				wantFrom := (int(ctx.Self) + k - 1) % k
				if len(inbox) != wantFrom+1 {
					t.Errorf("machine %d got %d envelopes, want %d", ctx.Self, len(inbox), wantFrom+1)
				}
				for _, e := range inbox {
					if int(e.From) != wantFrom || e.Msg.X != int64(wantFrom) {
						t.Errorf("machine %d got %+v, want from %d", ctx.Self, e, wantFrom)
					}
				}
				return nil, true
			}
		})
	}
}

func TestRunLocalRingMatchesCoreStats(t *testing.T) {
	const k = 5
	nodeStats, _, err := node.RunLocal(core.Config{K: k, Bandwidth: 2, Seed: 7}, echoCodec{}, ringFactory(t, k))
	if err != nil {
		t.Fatal(err)
	}
	cluster := core.NewCluster(core.Config{K: k, Bandwidth: 2, Seed: 7}, ringFactory(t, k))
	coreStats, err := cluster.Run()
	if err != nil {
		t.Fatal(err)
	}
	if nodeStats.Rounds != coreStats.Rounds ||
		nodeStats.Words != coreStats.Words ||
		nodeStats.Messages != coreStats.Messages ||
		nodeStats.Supersteps != coreStats.Supersteps ||
		nodeStats.MaxRecvWords != coreStats.MaxRecvWords {
		t.Errorf("stats diverge:\n node: %+v\n core: %+v", nodeStats, coreStats)
	}
	for i := 0; i < k; i++ {
		if nodeStats.RecvWords[i] != coreStats.RecvWords[i] || nodeStats.SentWords[i] != coreStats.SentWords[i] {
			t.Errorf("machine %d words: node (%d,%d), core (%d,%d)", i,
				nodeStats.RecvWords[i], nodeStats.SentWords[i], coreStats.RecvWords[i], coreStats.SentWords[i])
		}
	}
}

// TestRunLocalIsOneHop counts the frames of a superstep over sockets:
// one batch frame per directed pair, its row inside, and no control
// frame — the exchange is the superstep's only synchronisation. A round
// through a coordinator would add 2(k-1) frames per superstep.
func TestRunLocalIsOneHop(t *testing.T) {
	const k = 4
	stats, w, err := node.RunLocal(core.Config{K: k, Bandwidth: 2, Seed: 7}, echoCodec{}, ringFactory(t, k))
	if err != nil {
		t.Fatal(err)
	}
	// Every superstep is exchanged, the final silent one included, but
	// only the ones before it are charged.
	s := int64(stats.Supersteps + 1)
	if want := s * k * (k - 1); w.FramesSent != want || w.FramesRecv != want {
		t.Errorf("%d supersteps sent %d and received %d frames, want %d", s, w.FramesSent, w.FramesRecv, want)
	}
}

// TestRunLocalPageRankMatchesInMemory is the paper-level claim: the
// same PageRank machines, run as k standalone node runtimes over
// a loopback mesh, produce bit-identical estimates and identical measured
// Rounds/Words to the in-process simulator.
func TestRunLocalPageRankMatchesInMemory(t *testing.T) {
	const (
		k    = 8
		n    = 200
		seed = 42
	)
	g := gen.Gnp(n, 0.05, seed)
	p := partition.NewRVP(g, k, seed+1)
	bw := core.DefaultBandwidth(n)
	opts := pagerank.AlgorithmOne(0.15)

	mem, err := pagerank.Run(p, core.Config{K: k, Bandwidth: bw, Seed: seed + 2}, opts)
	if err != nil {
		t.Fatal(err)
	}

	desc := pagerank.Descriptor(n, opts)
	machines := make([]algo.Machine[pagerank.Wire, pagerank.Local], k)
	nodeStats, _, err := node.RunLocal(core.Config{K: k, Bandwidth: bw, Seed: seed + 2}, desc.Codec,
		func(id core.MachineID) core.Machine[pagerank.Wire] {
			m, err := desc.NewMachine(p.View(id))
			if err != nil {
				t.Fatal(err)
			}
			machines[id] = m
			return m
		})
	if err != nil {
		t.Fatal(err)
	}

	if nodeStats.Rounds != mem.Stats.Rounds || nodeStats.Words != mem.Stats.Words ||
		nodeStats.Supersteps != mem.Stats.Supersteps || nodeStats.Messages != mem.Stats.Messages {
		t.Errorf("stats diverge: node rounds=%d words=%d supersteps=%d msgs=%d; inmem rounds=%d words=%d supersteps=%d msgs=%d",
			nodeStats.Rounds, nodeStats.Words, nodeStats.Supersteps, nodeStats.Messages,
			mem.Stats.Rounds, mem.Stats.Words, mem.Stats.Supersteps, mem.Stats.Messages)
	}

	got := 0
	for _, m := range machines {
		l := m.Output()
		for i, v := range l.Vertices {
			got++
			if est := l.Estimate[i]; math.Float64bits(est) != math.Float64bits(mem.Estimate[v]) {
				t.Errorf("vertex %d: node estimate %v, inmem %v", v, est, mem.Estimate[v])
			}
		}
	}
	if got != n {
		t.Errorf("nodes output %d estimates, want %d", got, n)
	}
}

// TestRunRefusesCheckpointing: one process of a multi-process cluster
// holds one part of k, so it can never complete a cut, and node.Run
// refuses a checkpoint policy before it listens. The listen address is
// taken, so a listen would fail with another error.
func TestRunRefusesCheckpointing(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	cfg := core.Config{K: 2, Bandwidth: 1, Checkpoint: core.CheckpointPolicy{Every: 1, Sink: core.NewMemorySink()}}
	at := node.Place{ID: 0, Listen: taken.Addr().String(), Peers: []string{taken.Addr().String(), "127.0.0.1:1"}}
	_, err = node.Run(cfg, at, ringFactory(t, 2)(0), echoCodec{})
	if err == nil || !strings.Contains(err.Error(), "never complete a cut") {
		t.Fatalf("node.Run with Checkpoint.Every = 1: got %v, want the refusal", err)
	}
}

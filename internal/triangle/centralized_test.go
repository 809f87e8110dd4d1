package triangle

import (
	"testing"

	"kmachine/internal/core"
	"kmachine/internal/gen"
	"kmachine/internal/graph"
	"kmachine/internal/partition"
	"kmachine/internal/transport"
)

func TestCentralizedExact(t *testing.T) {
	g := gen.Gnp(120, 0.3, 3)
	p := partition.NewRVP(g, 8, 5)
	res, err := RunCentralized(p, core.Config{K: 8, Bandwidth: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	wantCount, wantSum := graph.TriangleChecksum(g.Triangles())
	if res.Count != wantCount || res.Checksum != wantSum {
		t.Fatalf("centralized: %d triangles, want %d", res.Count, wantCount)
	}
	// All output at machine 0.
	for i := 1; i < 8; i++ {
		if res.PerMachine[i] != 0 {
			t.Errorf("machine %d output %d triangles; centralized should use only machine 0", i, res.PerMachine[i])
		}
	}
}

func TestCentralizedMessageOptimalRoundSuboptimal(t *testing.T) {
	// The Corollary 2 tradeoff: the centralized strategy uses ~m messages
	// (minus the free self-deliveries at machine 0) but pays more rounds
	// than the round-optimal algorithm at the same k.
	g := gen.Gnp(256, 0.5, 11)
	const k = 64
	p := partition.NewRVP(g, k, 13)
	cfg := core.Config{K: k, Bandwidth: core.DefaultBandwidth(g.N()), Seed: 17}
	cen, err := RunCentralized(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := Run(p, cfg, AlgorithmOptions())
	if err != nil {
		t.Fatal(err)
	}
	if cen.Count != alg.Count {
		t.Fatalf("strategies disagree: %d vs %d", cen.Count, alg.Count)
	}
	if cen.Stats.Messages > int64(g.M()) {
		t.Errorf("centralized used %d messages for %d edges", cen.Stats.Messages, g.M())
	}
	if cen.Stats.Messages >= alg.Stats.Messages {
		t.Errorf("centralized (%d msgs) should use fewer messages than round-optimal (%d)",
			cen.Stats.Messages, alg.Stats.Messages)
	}
	if cen.Stats.Rounds <= alg.Stats.Rounds {
		t.Errorf("centralized (%d rounds) should be slower than round-optimal (%d)",
			cen.Stats.Rounds, alg.Stats.Rounds)
	}
}

func TestCentralizedRejectsDirected(t *testing.T) {
	g := gen.DirectedCycle(10)
	p := partition.NewRVP(g, 4, 1)
	if _, err := RunCentralized(p, core.Config{K: 4, Bandwidth: 4, Seed: 1}); err == nil {
		t.Error("directed graph accepted")
	}
}

// TestEnumerationRunnersAgreeAcrossLinks runs each enumeration strategy
// on the in-process link and over sockets: the output and the measured
// cost must not depend on the link.
func TestEnumerationRunnersAgreeAcrossLinks(t *testing.T) {
	const k = 16 // 2⁴: the 4-clique runner gets two color classes, not one
	g := gen.Gnp(150, 0.2, 3)
	p := partition.NewRVP(g, k, 5)
	type outcome struct {
		count    int64
		checksum uint64
		stats    *core.Stats
	}
	runners := []struct {
		name string
		run  func(cfg core.Config) (outcome, error)
	}{
		{"centralized", func(cfg core.Config) (outcome, error) {
			r, err := RunCentralized(p, cfg)
			if err != nil {
				return outcome{}, err
			}
			return outcome{r.Count, r.Checksum, r.Stats}, nil
		}},
		{"baseline", func(cfg core.Config) (outcome, error) {
			r, err := RunBaseline(p, cfg, Options{})
			if err != nil {
				return outcome{}, err
			}
			return outcome{r.Count, r.Checksum, r.Stats}, nil
		}},
		{"cliques4", func(cfg core.Config) (outcome, error) {
			r, err := RunCliques4(p, cfg, AlgorithmOptions())
			if err != nil {
				return outcome{}, err
			}
			return outcome{r.Count, r.Checksum, r.Stats}, nil
		}},
	}
	for _, r := range runners {
		t.Run(r.name, func(t *testing.T) {
			var got [2]outcome
			for i, kind := range []transport.Kind{transport.InMem, transport.TCP} {
				o, err := r.run(core.Config{K: k, Bandwidth: core.DefaultBandwidth(g.N()), Seed: 7, Transport: kind})
				if err != nil {
					t.Fatalf("%s: %v", kind, err)
				}
				got[i] = o
			}
			mem, sock := got[0], got[1]
			if mem.count == 0 {
				t.Fatal("the input has nothing to enumerate")
			}
			if sock.count != mem.count || sock.checksum != mem.checksum {
				t.Errorf("tcp output %d/%016x, inmem %d/%016x", sock.count, sock.checksum, mem.count, mem.checksum)
			}
			if sock.stats.Rounds != mem.stats.Rounds || sock.stats.Words != mem.stats.Words {
				t.Errorf("tcp cost %d rounds/%d words, inmem %d/%d",
					sock.stats.Rounds, sock.stats.Words, mem.stats.Rounds, mem.stats.Words)
			}
		})
	}
}

package pagerank

import (
	"testing"

	"kmachine/internal/algo"
	"kmachine/internal/core"
	"kmachine/internal/gen"
	"kmachine/internal/graph"
	"kmachine/internal/partition"
	"kmachine/internal/routing"
)

// countingMachine records, per superstep, how many distinct vertices
// its machine sent light tokens to and how many of its vertices walked
// the heavy path, read off the buckets the Step filled (they stay intact
// until the next Step clears them).
type countingMachine struct {
	*machine
	light, heavy []int
}

func (c *countingMachine) Step(ctx *core.StepContext, inbox []core.Envelope[wire]) ([]core.Envelope[wire], bool) {
	out, done := c.machine.Step(ctx, inbox)
	light, heavy := map[int32]bool{}, map[int32]bool{}
	for _, b := range c.buckets {
		for i := range b {
			if d := &b[i].Msg.Msg; d.Kind == kindLight {
				light[d.V] = true
			} else {
				heavy[d.V] = true
			}
		}
	}
	c.light, c.heavy = append(c.light, len(light)), append(c.heavy, len(heavy))
	return out, done
}

// directedPA orients every edge of a preferential-attachment graph from
// the later vertex to the earlier one, so the walks pile up on the old
// hubs.
func directedPA(n, attach int, seed uint64) *graph.Graph {
	edges := gen.PreferentialAttachment(n, attach, seed).EdgeList()
	for i, e := range edges {
		edges[i] = [2]int32{max(e[0], e[1]), min(e[0], e[1])}
	}
	return graph.FromEdges(n, true, edges)
}

// TestLightTokensSpreadOverTheLinks fences the direct light path. In a
// walk superstep machine i sends at most one light message per
// destination vertex, to Lᵢ distinct vertices. The random vertex partition homes
// every vertex independently of the graph, so a destination homed off
// i is homed uniformly at one of the other k−1 machines, independently
// of the other destinations, and i's light messages to j number at most
// Binomial(Lᵢ, 1/(k−1)); LinkShare(L, k−1), with L = maxᵢ Lᵢ, is that
// binomial's mean plus four standard deviations. A vertex on the heavy
// path sends at most one message per machine (k−1 over the links), so
// link i→j carries at most Hᵢ heavy messages, Hᵢ the number of i's
// vertices that walked heavy. A message is MsgWords = 2 words, so no
// link of the superstep carries more than 2·(LinkShare(L, k−1) + H)
// words whp, H = maxᵢ Hᵢ, with no relay. On gnp the light term decides
// the bound (at k = 27 a busy superstep's L is about 200); on the star
// every leaf holds ≥ k tokens and walks heavy to the hub's machine, so
// the heavy term does, with one message per leaf; the directed
// preferential-attachment walks pile onto a few hubs and mix both.
// Each case also pins its output hash, recorded while light messages
// still went through a random intermediate: dropping the relay moved no
// walk.
func TestLightTokensSpreadOverTheLinks(t *testing.T) {
	for _, in := range []struct {
		name string
		g    *graph.Graph
		hash [3]uint64 // at k = 4, 8, 27
	}{
		{"gnp", gen.Gnp(3000, 8.0/3000, 43), [3]uint64{0xa243713fc5b88b12, 0x15e5b923634893c3, 0x66722510b465fb75}},
		{"star", gen.Star(2000), [3]uint64{0x1ff3a3a114e58fdd, 0x5c6de9d734a82132, 0x2c3f556c18efe91d}},
		{"directed PA", directedPA(3000, 3, 43), [3]uint64{0xb1988d6f91bd9e6c, 0x7abd58fe3808ccff, 0xa1056aa0b56a605e}},
	} {
		for ki, k := range []int{4, 8, 27} {
			p := partition.NewRVP(in.g, k, 47)
			desc := Descriptor(in.g.N(), AlgorithmOne(0.15))
			ms := make([]*countingMachine, k)
			build := desc.NewMachine
			desc.NewMachine = func(view partition.View) (algo.Machine[Wire, Local], error) {
				m, err := build(view)
				if err != nil {
					return nil, err
				}
				c := &countingMachine{machine: m.(*machine)}
				ms[view.Self()] = c
				return c, nil
			}
			res, stats, err := algo.Run(desc, p, core.Config{K: k, Bandwidth: core.DefaultBandwidth(in.g.N()), Seed: 53})
			if err != nil {
				t.Fatal(err)
			}
			if h := hashResult(res); h != in.hash[ki] {
				t.Errorf("%s k=%d: output hash %#x, pinned %#x", in.name, k, h, in.hash[ki])
			}
			for s, ss := range stats.PerSuperstep {
				light, heavy := 0, 0
				for _, c := range ms {
					light, heavy = max(light, c.light[s]), max(heavy, c.heavy[s])
				}
				bound := MsgWords * int64(routing.LinkShare(light, k-1)+heavy)
				if ss.MaxLinkWords > bound {
					t.Errorf("%s k=%d: superstep %d loads a link with %d words, above 2·(LinkShare(%d, %d) + %d) = %d",
						in.name, k, s, ss.MaxLinkWords, light, k-1, heavy, bound)
					break
				}
			}
		}
	}
}

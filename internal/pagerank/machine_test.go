package pagerank

import (
	"fmt"
	"strings"
	"testing"

	"kmachine/internal/core"
	"kmachine/internal/gen"
	"kmachine/internal/partition"
	"kmachine/internal/rng"
)

// cluster builds the k machines of an Algorithm 1 run over a G(n,p)
// digraph, with one step context each.
func cluster(n, k int) ([]*machine, []core.StepContext) {
	g := gen.DirectedGnp(n, 8/float64(n), 11)
	p := partition.NewRVP(g, k, 5)
	opts := AlgorithmOne(0.15)
	opts.ApplyDefaults(n)
	ms := make([]*machine, k)
	ctxs := make([]core.StepContext, k)
	for i := range ms {
		ms[i] = newMachine(p.View(core.MachineID(i)), opts)
		ctxs[i] = core.StepContext{Self: core.MachineID(i), K: k, RNG: rng.NewStream(9, uint64(i))}
	}
	return ms, ctxs
}

// TestLightTokensForForeignVertexPanic hands machine 0 a light message
// for a vertex homed elsewhere. There is no row to add the tokens to,
// so Step must fail loudly — naming the machine, the vertex and its
// home — for Drive to report, instead of dropping the tokens.
func TestLightTokensForForeignVertexPanic(t *testing.T) {
	ms, ctxs := cluster(200, 4)
	m, ctx := ms[0], &ctxs[0]
	v := int32(0)
	for m.view.IsLocal(v) {
		v++
	}
	inbox := []core.Envelope[wire]{{To: 0, Words: MsgWords,
		Msg: wire{Final: 0, Msg: msg{Kind: kindLight, V: v, Count: 3}}}}
	want := fmt.Sprintf("machine 0 got light tokens for %d, which is homed on machine %d", v, m.view.HomeOf(v))
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("Step accepted light tokens for a vertex it does not host")
		}
		if !strings.Contains(fmt.Sprint(p), want) {
			t.Fatalf("panic %q does not say %q", p, want)
		}
	}()
	ctx.Superstep = 1
	m.Step(ctx, inbox)
}

// TestStepDoesNotAllocate fences the walk: once its buffers have grown
// and every alias table it may need exists, machine 0 of a cluster
// exchanged by hand receives the tokens of an odd superstep and walks
// them in the next even one without allocating — no sorted key list,
// no per-vertex lookups.
func TestStepDoesNotAllocate(t *testing.T) {
	const n, k = 2000, 4
	ms, ctxs := cluster(n, k)
	inbox := make([][]core.Envelope[wire], k)
	const receiveStep = 3
	for s := 0; s < receiveStep; s++ {
		next := make([][]core.Envelope[wire], k)
		for i, m := range ms {
			ctxs[i].Superstep = s
			out, _ := m.Step(&ctxs[i], inbox[i])
			for _, e := range out {
				next[e.To] = append(next[e.To], e)
			}
		}
		inbox = next
	}
	m, ctx := ms[0], &ctxs[0]
	for r, adj := range m.adj {
		if len(adj) > 0 {
			m.heavyAlias(r)
		}
	}
	step := func() {
		ctx.Superstep = receiveStep
		m.Step(ctx, inbox[0])
		ctx.Superstep = receiveStep + 1
		if out, done := m.Step(ctx, nil); done || len(out) == 0 {
			t.Fatalf("walk step sent %d envelopes, done=%v", len(out), done)
		}
	}
	for i := 0; i < 5; i++ {
		step() // grows the recycled buffers
	}
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Errorf("receive+walk Steps allocate %.0f times, want 0", allocs)
	}
}

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
	m := ms[0]
	v := int32(0)
	for m.view.IsLocal(v) {
		v++
	}
	stepPanics(t, m, &ctxs[0], wire{Final: 0, Msg: msg{Kind: kindLight, V: v, Count: 3}},
		fmt.Sprintf("machine 0 got light tokens for %d, which is homed on machine %d", v, m.view.HomeOf(v)))
}

// TestEnvelopeForAnotherMachinePanics: every token message goes
// straight to its final machine, so an inbox envelope whose Final names
// another machine is a protocol breach, not a relay to forward.
func TestEnvelopeForAnotherMachinePanics(t *testing.T) {
	ms, ctxs := cluster(200, 4)
	v := ms[2].view.Locals()[0]
	stepPanics(t, ms[0], &ctxs[0], wire{Final: 2, Msg: msg{Kind: kindLight, V: v, Count: 3}},
		"machine 0 got tokens addressed to machine 2")
}

// stepPanics hands m a one-envelope inbox and requires Step to panic
// with a message containing want.
func stepPanics(t *testing.T, m *machine, ctx *core.StepContext, w wire, want string) {
	t.Helper()
	defer func() {
		p := recover()
		if p == nil {
			t.Fatalf("Step accepted %+v", w)
		}
		if !strings.Contains(fmt.Sprint(p), want) {
			t.Fatalf("panic %q does not say %q", p, want)
		}
	}()
	m.Step(ctx, []core.Envelope[wire]{{To: ctx.Self, Words: MsgWords, Msg: w}})
}

// TestStepDoesNotAllocate fences the walk: once its buffers have grown
// and every alias table it may need exists, machine 0 of a cluster
// exchanged by hand receives the tokens of one superstep and walks them
// in the same Step without allocating — no sorted key list, no
// per-vertex lookups.
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
	ctx.Superstep = receiveStep
	step := func() {
		if out, done := m.Step(ctx, inbox[0]); done || len(out) == 0 {
			t.Fatalf("receive+walk step sent %d envelopes, done=%v", len(out), done)
		}
	}
	for i := 0; i < 5; i++ {
		step() // grows the recycled buffers
	}
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Errorf("a receive+walk Step allocates %.0f times, want 0", allocs)
	}
}

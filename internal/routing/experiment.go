package routing

import (
	"kmachine/internal/algo"
	"kmachine/internal/core"
	"kmachine/internal/partition"
	"kmachine/internal/transport"
	"kmachine/internal/transport/wire"
)

// This file implements the measurable workloads behind Lemma 13 and the
// two-hop pattern, used by experiment E7 and the algorithm registry.
// Both run through the generic internal/algo driver, so they execute on
// any substrate (loopback, TCP sockets, standalone nodes) with
// identical Stats.

type routeProbe struct{ Token int32 }

// probeCodec serialises the one-word routing probes for socket
// substrates.
type probeCodec struct{}

func (probeCodec) Append(dst []byte, m routeProbe) ([]byte, error) {
	return wire.AppendVarint(dst, int64(m.Token)), nil
}

func (probeCodec) Decode(src []byte) (routeProbe, int, error) {
	c := wire.Cursor{Src: src}
	m := routeProbe{Token: int32(c.Varint())}
	return m, c.Off, c.Err
}

// RandomRouteResult reports one routing run.
type RandomRouteResult struct {
	Stats *core.Stats
	// Delivered counts payloads that reached a machine as final.
	Delivered int64
}

// randomRouteMachine sends x one-word messages to independently uniform
// destinations in superstep 0 and counts everything it receives. It
// draws them straight into per-destination buckets, each presized to a
// link's Lemma 13 share, and hands every peer's bucket to the link
// whole, so no layer below splits a flat outbox by destination again.
type randomRouteMachine struct {
	x         int
	delivered int64
}

func (m *randomRouteMachine) Step(ctx *core.StepContext, inbox []core.Envelope[routeProbe]) ([]core.Envelope[routeProbe], bool) {
	m.delivered += int64(len(inbox))
	if ctx.Superstep > 0 {
		return nil, true
	}
	share := LinkShare(m.x, ctx.K)
	slab := make([]core.Envelope[routeProbe], ctx.K*share)
	buckets := make([][]core.Envelope[routeProbe], ctx.K)
	for j := range buckets {
		buckets[j] = slab[j*share : j*share : (j+1)*share]
	}
	for i := 0; i < m.x; i++ {
		to := ctx.RNG.Intn(ctx.K)
		buckets[to] = append(buckets[to], core.Envelope[routeProbe]{
			To:    core.MachineID(to),
			Words: 1,
			Msg:   routeProbe{Token: int32(i)},
		})
	}
	return core.EmitBuckets(ctx, buckets), true
}

// Output implements algo.Machine.
func (m *randomRouteMachine) Output() int64 { return m.delivered }

// sumDelivered merges the per-machine delivery counts.
func sumDelivered(locals []int64) int64 {
	var total int64
	for _, d := range locals {
		total += d
	}
	return total
}

// RandomRouteExperiment has every machine send x one-word messages to
// independently uniform destinations over direct links — the exact
// hypothesis of Lemma 13. The measured rounds should scale as
// Θ((x/k + log)/B): each of the k-1 outgoing links of a machine carries
// ~x/k messages whp.
func RandomRouteExperiment(k, x, bandwidth int, seed uint64) (*RandomRouteResult, error) {
	return RandomRouteExperimentOn(transport.Default, k, x, bandwidth, seed)
}

// RandomRouteExperimentOn is RandomRouteExperiment over an explicit
// transport kind.
func RandomRouteExperimentOn(kind transport.Kind, k, x, bandwidth int, seed uint64) (*RandomRouteResult, error) {
	return run(Descriptor(x), kind, k, bandwidth, seed)
}

// fixedDestMachine: machine 0 sends x one-word messages all addressed
// to machine k-1 (directly or two-hop); every machine relays forwards
// and counts deliveries.
type fixedDestMachine struct {
	x         int
	twoHop    bool
	final     core.MachineID
	delivered int64
	buckets   [][]core.Envelope[Hop[routeProbe]] // per-destination outs, recycled
}

func (m *fixedDestMachine) Step(ctx *core.StepContext, inbox []core.Envelope[Hop[routeProbe]]) ([]core.Envelope[Hop[routeProbe]], bool) {
	for j := range m.buckets {
		m.buckets[j] = m.buckets[j][:0]
	}
	for i := range inbox {
		if e := &inbox[i]; e.Msg.Final != ctx.Self {
			Forward(m.buckets, e)
		} else {
			m.delivered++
		}
	}
	if ctx.Superstep == 0 && ctx.Self == 0 {
		for i := 0; i < m.x; i++ {
			if m.twoHop {
				Route(m.buckets, ctx.RNG, ctx.K, m.final, 1, routeProbe{Token: int32(i)})
			} else {
				RouteDirect(m.buckets, m.final, 1, routeProbe{Token: int32(i)})
			}
		}
	}
	return core.EmitBuckets(ctx, m.buckets), true
}

// Output implements algo.Machine.
func (m *fixedDestMachine) Output() int64 { return m.delivered }

// FixedDestinationExperiment has machine 0 send x one-word messages all
// addressed to machine k-1, either directly (twoHop=false: the single
// link 0 -> k-1 serialises at x/B rounds) or via Valiant two-hop relays
// (twoHop=true: hop 1 spreads over random intermediates and hop 2
// converges over the receiver's k-1 incoming links, ~x/k per link per
// hop). The contrast quantifies what two-hop routing buys when a source
// is adversarially concentrated; it is the routing primitive Algorithm 1
// invokes for its light-vertex token counts.
func FixedDestinationExperiment(k, x, bandwidth int, twoHop bool, seed uint64) (*RandomRouteResult, error) {
	return FixedDestinationExperimentOn(transport.Default, k, x, bandwidth, twoHop, seed)
}

// FixedDestinationExperimentOn is FixedDestinationExperiment over an
// explicit transport kind.
func FixedDestinationExperimentOn(kind transport.Kind, k, x, bandwidth int, twoHop bool, seed uint64) (*RandomRouteResult, error) {
	return run(algo.Algorithm[Hop[routeProbe], int64, []int64]{
		Name:  "routing",
		Codec: HopCodec[routeProbe](probeCodec{}),
		NewMachine: func(view partition.View) (algo.Machine[Hop[routeProbe], int64], error) {
			return &fixedDestMachine{x: x, twoHop: twoHop, final: core.MachineID(view.K() - 1),
				buckets: make([][]core.Envelope[Hop[routeProbe]], view.K())}, nil
		},
		Merge: func(locals []int64) []int64 { return locals },
	}, kind, k, bandwidth, seed)
}

// run executes one of the experiments' descriptors on k machines over
// an edgeless input and totals its per-machine delivery counts.
func run[M any](a algo.Algorithm[M, int64, []int64], kind transport.Kind, k, bandwidth int, seed uint64) (*RandomRouteResult, error) {
	cfg := core.Config{K: k, Bandwidth: bandwidth, Seed: seed, Transport: kind}
	perMachine, stats, err := algo.Run(a, algo.EdgelessInput(algo.Problem{K: k, Seed: seed}), cfg)
	if err != nil {
		return nil, err
	}
	return &RandomRouteResult{Stats: stats, Delivered: sumDelivered(perMachine)}, nil
}

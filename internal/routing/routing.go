// Package routing implements the communication-balancing machinery of
// the paper's upper bounds (§1.3, §3):
//
//   - random routing (Lemma 13): when every machine sends O(x) messages
//     to uniformly random destinations (or receives O(x) from random
//     sources), direct links deliver everything in O((x log x)/k) rounds
//     whp. RandomRouteExperiment measures exactly this setting;
//   - Valiant two-hop routing: when destinations are fixed (not random) —
//     e.g. token counts addressed to a vertex's home machine — Route sends
//     a message direct while that link's bucket is no longer than a
//     uniformly drawn intermediate's, else via the intermediate, which
//     forwards it (Forward). Lemma 13's per-link bound holds for both
//     hops, by a coupling with uniform intermediates (DESIGN.md);
//   - randomized proxy computation (§1.3, §3.2): the designation rule that
//     decides which endpoint's home machine ships an edge to its random
//     proxy, including the heavy-vertex (degree >= 2k log n) broadcast
//     convention that keeps machines hosting high-degree vertices from
//     serialising.
package routing

import (
	"fmt"
	"math"

	"kmachine/internal/core"
	"kmachine/internal/rng"
)

// Hop wraps a payload with its final destination for two-hop routing. A
// receiver inspects Final: if it names the receiver the payload is
// delivered, otherwise the receiver forwards it (second hop).
type Hop[M any] struct {
	Final core.MachineID
	Msg   M
}

// The functions below append into a per-destination bucket array
// (buckets[j] holds the envelopes addressed to machine j), the shape
// core.EmitBuckets hands to the link. Appending a call's envelope to
// bucket j preserves the program order of all envelopes addressed to
// j, and inbox assembly orders by (sender, per-sender program order),
// so no inbox depends on whether its bucket was emitted or returned.

// Route appends an envelope carrying msg towards final to final's own
// bucket if it is no longer than that of an intermediate drawn from r
// (one r.Intn(k) per call either way), else to the intermediate's. A
// final outside [0, k) panics here, at the sender, not a superstep later.
func Route[M any](buckets [][]core.Envelope[Hop[M]], r *rng.RNG, k int, final core.MachineID, words int32, msg M) {
	if final < 0 || int(final) >= k {
		panic(fmt.Sprintf("routing: final machine %d out of [0,%d)", final, k))
	}
	mid := r.Intn(k)
	if len(buckets[final]) <= len(buckets[mid]) {
		mid = int(final)
	}
	buckets[mid] = append(buckets[mid], core.Envelope[Hop[M]]{
		To:    core.MachineID(mid),
		Words: words,
		Msg:   Hop[M]{Final: final, Msg: msg},
	})
}

// RouteDirect appends an envelope addressed straight to final, in the
// same Hop framing (used by the ablation that disables two-hop routing,
// and for messages whose destination is already uniformly random).
func RouteDirect[M any](buckets [][]core.Envelope[Hop[M]], final core.MachineID, words int32, msg M) {
	buckets[final] = append(buckets[final], core.Envelope[Hop[M]]{
		To:    final,
		Words: words,
		Msg:   Hop[M]{Final: final, Msg: msg},
	})
}

// Forward appends the second-hop forward of e — an inbox envelope whose
// Final is another machine — to that machine's bucket, as a copy that
// outlives the inbox. A receiver walks its inbox once: Forward for other
// machines' envelopes, its own payloads consumed in place.
func Forward[M any](buckets [][]core.Envelope[Hop[M]], e *core.Envelope[Hop[M]]) {
	buckets[e.Msg.Final] = append(buckets[e.Msg.Final], core.Envelope[Hop[M]]{
		To:    e.Msg.Final,
		Words: e.Words,
		Msg:   e.Msg,
	})
}

// LinkShare is the Lemma 13 buffer size: how many of x items dealt
// uniformly over k machines (or links) one of them holds whp — the mean
// x/k plus four standard deviations (√mean bounds the binomial's). The
// concentration that bounds a link's rounds is the same one that bounds
// the buffer its envelopes wait in.
func LinkShare(x, k int) int {
	mean := float64(x) / float64(k)
	return int(mean+4*math.Sqrt(mean)) + 1
}

// HeavyDegreeThreshold is the §3.2 proxy-assignment cutoff 2·k·log n:
// vertices at or above it have their edge shipments delegated to the
// neighbours' home machines.
func HeavyDegreeThreshold(k, n int) int {
	t := int(math.Ceil(2 * float64(k) * math.Log2(float64(n)+1)))
	if t < 1 {
		t = 1
	}
	return t
}

// DesignatedEndpoint decides which endpoint's home machine ships edge
// {u,v} to its random proxy. All machines that know the heaviness flags
// evaluate the same pure function, so exactly one machine sends each
// edge:
//
//   - exactly one endpoint heavy: the light endpoint's home sends (the
//     heavy vertex "requests all other machines to designate the
//     respective edge proxies");
//   - both light or both heavy: a hash coin picks the endpoint (the
//     paper breaks such ties randomly).
func DesignatedEndpoint(u, v int32, uHeavy, vHeavy bool, seed uint64) int32 {
	switch {
	case uHeavy && !vHeavy:
		return v
	case vHeavy && !uHeavy:
		return u
	default:
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		if rng.Mix(seed^(uint64(uint32(a))<<32|uint64(uint32(b))))&1 == 0 {
			return a
		}
		return b
	}
}

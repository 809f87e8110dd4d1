package routing

import (
	"slices"
	"strings"
	"testing"

	"kmachine/internal/algo"
	"kmachine/internal/core"
	"kmachine/internal/partition"
	"kmachine/internal/rng"
	"kmachine/internal/transport"
)

func TestForwardCopiesToFinalsBucketInOrder(t *testing.T) {
	inbox := []core.Envelope[Hop[int]]{
		{From: 1, To: 2, Words: 1, Msg: Hop[int]{Final: 5, Msg: 20}},
		{From: 3, To: 2, Words: 2, Msg: Hop[int]{Final: 4, Msg: 30}},
		{From: 3, To: 2, Words: 3, Msg: Hop[int]{Final: 5, Msg: 40}},
	}
	buckets := make([][]core.Envelope[Hop[int]], 6)
	for i := range inbox {
		Forward(buckets, &inbox[i])
	}
	// The link recycles the inbox once the Step returns: the forwards
	// must not see it.
	clear(inbox)
	assertBucketed(t, buckets)
	want := map[int][]core.Envelope[Hop[int]]{
		4: {{To: 4, Words: 2, Msg: Hop[int]{Final: 4, Msg: 30}}},
		5: {{To: 5, Words: 1, Msg: Hop[int]{Final: 5, Msg: 20}}, {To: 5, Words: 3, Msg: Hop[int]{Final: 5, Msg: 40}}},
	}
	for j, b := range buckets {
		if !slices.Equal(b, want[j]) {
			t.Errorf("bucket %d = %+v, want %+v", j, b, want[j])
		}
	}
}

// strayRouteMachine has machine from route one probe to final = k, a
// machine that does not exist, in superstep 0; every machine forwards
// what it relays.
type strayRouteMachine struct {
	from    core.MachineID
	buckets [][]core.Envelope[Hop[routeProbe]]
}

func (m *strayRouteMachine) Step(ctx *core.StepContext, inbox []core.Envelope[Hop[routeProbe]]) ([]core.Envelope[Hop[routeProbe]], bool) {
	for j := range m.buckets {
		m.buckets[j] = m.buckets[j][:0]
	}
	for i := range inbox {
		if e := &inbox[i]; e.Msg.Final != ctx.Self {
			Forward(m.buckets, e)
		}
	}
	if ctx.Superstep == 0 && ctx.Self == m.from {
		Route(m.buckets, ctx.RNG, ctx.K, core.MachineID(ctx.K), 1, routeProbe{})
	}
	return core.EmitBuckets(ctx, m.buckets), true
}

func (m *strayRouteMachine) Output() int64 { return 0 }

// TestRouteRefusesFinalOutOfRangeAtTheSender: a final outside [0, k)
// fails the run at the machine that routed it, in the superstep it did
// so, on both links — not as an index panic at a random intermediate a
// superstep later.
func TestRouteRefusesFinalOutOfRangeAtTheSender(t *testing.T) {
	const k, from = 4, 2
	for _, kind := range []transport.Kind{transport.InMem, transport.TCP} {
		_, err := run(algo.Algorithm[Hop[routeProbe], int64, []int64]{
			Name:  "routing",
			Codec: HopCodec[routeProbe](probeCodec{}),
			NewMachine: func(view partition.View) (algo.Machine[Hop[routeProbe], int64], error) {
				return &strayRouteMachine{from: from, buckets: make([][]core.Envelope[Hop[routeProbe]], view.K())}, nil
			},
			Merge: func(locals []int64) []int64 { return locals },
		}, kind, k, 8, 1)
		if err == nil {
			t.Fatalf("%v: routing to final %d of %d machines succeeded", kind, k, k)
		}
		for _, says := range []string{"machine 2 panicked in superstep 0", "final machine 4 out of [0,4)"} {
			if !strings.Contains(err.Error(), says) {
				t.Errorf("%v: error %q does not say %q", kind, err, says)
			}
		}
	}
}

func TestRouteChoosesIntermediate(t *testing.T) {
	r := rng.New(5)
	const k = 10
	buckets := make([][]core.Envelope[Hop[int]], k)
	for i := 0; i < 1000; i++ {
		Route(buckets, r, k, 3, 1, i)
	}
	assertBucketed(t, buckets)
	total := 0
	for m, b := range buckets {
		if len(b) == 0 {
			t.Errorf("intermediate %d never chosen in 1000 routes", m)
		}
		for _, e := range b {
			if e.Msg.Final != 3 {
				t.Fatal("Route lost the final destination")
			}
		}
		total += len(b)
	}
	if total != 1000 {
		t.Fatalf("1000 routes appended %d envelopes", total)
	}
}

// TestRouteDrawsOnceAndGoesDirectIffNoLonger: every call draws exactly
// one r.Intn(k), whichever hop it picks, so a twin RNG drawing one
// Intn(k) per call stays in lockstep (the walk streams that share r
// never shift); and the message joins final's bucket iff that bucket
// is no longer than the drawn intermediate's, else the intermediate's.
func TestRouteDrawsOnceAndGoesDirectIffNoLonger(t *testing.T) {
	const k, calls = 7, 5000
	r, twin, finals := rng.New(11), rng.New(11), rng.New(12)
	buckets := make([][]core.Envelope[Hop[int]], k)
	direct, relayed := 0, 0
	for i := 0; i < calls; i++ {
		final := core.MachineID(finals.Intn(k))
		mid := twin.Intn(k)
		want := mid
		if len(buckets[final]) <= len(buckets[mid]) {
			want = int(final)
		}
		before := len(buckets[want])
		Route(buckets, r, k, final, 1, i)
		if len(buckets[want]) != before+1 || buckets[want][before].Msg != (Hop[int]{Final: final, Msg: i}) {
			t.Fatalf("call %d (final %d, drawn %d): envelope not appended to bucket %d", i, final, mid, want)
		}
		if want == int(final) {
			direct++
		} else {
			relayed++
		}
	}
	assertBucketed(t, buckets)
	if r.Uint64() != twin.Uint64() {
		t.Fatal("Route drew other than one Intn(k) per call: its RNG left the twin's stream")
	}
	if direct == 0 || relayed == 0 {
		t.Errorf("%d direct and %d relayed of %d: one branch never ran", direct, relayed, calls)
	}
}

// TestRouteSpreadsAConcentratedFlow: one sender routing x messages to
// one final fills final's bucket only while it is no longer than a
// uniformly drawn one, so no bucket ends more than one message above
// what Lemma 13's uniform dealing holds whp, LinkShare(x, k).
func TestRouteSpreadsAConcentratedFlow(t *testing.T) {
	const k, x, final = 16, 4096, 5
	for _, seed := range []uint64{1, 2, 7, 13, 29} {
		r := rng.New(seed)
		buckets := make([][]core.Envelope[Hop[int]], k)
		for i := 0; i < x; i++ {
			Route(buckets, r, k, final, 1, i)
		}
		for j, b := range buckets {
			if len(b) > LinkShare(x, k)+1 {
				t.Errorf("seed %d: bucket %d holds %d of %d, above LinkShare(%d, %d) + 1 = %d",
					seed, j, len(b), x, x, k, LinkShare(x, k)+1)
			}
		}
	}
}

// assertBucketed checks that every envelope sits in the bucket of the
// machine it is addressed to.
func assertBucketed[M any](t *testing.T, buckets [][]core.Envelope[Hop[M]]) {
	t.Helper()
	for j, b := range buckets {
		for _, e := range b {
			if e.To != core.MachineID(j) {
				t.Errorf("bucket %d holds an envelope to %d", j, e.To)
			}
		}
	}
}

func TestRandomRouteDeliversEverything(t *testing.T) {
	const k, x = 8, 50
	res, err := RandomRouteExperiment(k, x, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Self-addressed messages are delivered too (they are just free).
	if res.Delivered != int64(k*x) {
		t.Errorf("delivered %d messages, want %d", res.Delivered, k*x)
	}
}

// TestLemma13Scaling: x random-destination messages per machine route in
// O((x log x)/k) rounds; doubling k should roughly halve the rounds once
// x/k dominates the +1 floor.
func TestLemma13Scaling(t *testing.T) {
	const x = 2048
	rounds := map[int]int64{}
	for _, k := range []int{4, 8, 16} {
		var total int64
		for seed := uint64(0); seed < 4; seed++ {
			res, err := RandomRouteExperiment(k, x, 1, seed)
			if err != nil {
				t.Fatal(err)
			}
			total += res.Stats.Rounds
		}
		rounds[k] = total / 4
	}
	if r := float64(rounds[4]) / float64(rounds[8]); r < 1.5 || r > 2.6 {
		t.Errorf("k 4->8 speedup %.2fx, want ~2x", r)
	}
	if r := float64(rounds[8]) / float64(rounds[16]); r < 1.5 || r > 2.6 {
		t.Errorf("k 8->16 speedup %.2fx, want ~2x", r)
	}
}

// TestTwoHopBeatsDirectForConcentratedSource: a single source sending x
// messages to a single destination is ~k/2 times faster with Valiant
// routing (x/k per link per hop vs x on one link).
func TestTwoHopBeatsDirectForConcentratedSource(t *testing.T) {
	const k, x = 16, 4096
	direct, err := FixedDestinationExperiment(k, x, 1, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	twohop, err := FixedDestinationExperiment(k, x, 1, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Delivered != x || twohop.Delivered != x {
		t.Fatalf("delivered %d / %d, want %d each", direct.Delivered, twohop.Delivered, x)
	}
	if direct.Stats.Rounds != x {
		t.Errorf("direct rounds = %d, want exactly x = %d (single hot link)", direct.Stats.Rounds, x)
	}
	speedup := float64(direct.Stats.Rounds) / float64(twohop.Stats.Rounds)
	if speedup < float64(k)/4 {
		t.Errorf("two-hop speedup %.1fx, want >= k/4 = %.1fx", speedup, float64(k)/4)
	}
}

func TestHeavyDegreeThresholdMonotone(t *testing.T) {
	if HeavyDegreeThreshold(2, 10) < 1 {
		t.Error("threshold below 1")
	}
	if HeavyDegreeThreshold(4, 1000) >= HeavyDegreeThreshold(8, 1000) {
		t.Error("threshold not increasing in k")
	}
	if HeavyDegreeThreshold(4, 100) >= HeavyDegreeThreshold(4, 100000) {
		t.Error("threshold not increasing in n")
	}
}

func TestDesignatedEndpointConsistentAndCovering(t *testing.T) {
	// The designation is a pure function: both endpoints' home machines
	// must compute the same sender, and over many edges with symmetric
	// flags the coin should pick both sides.
	pickedU, pickedV := 0, 0
	for u := int32(0); u < 100; u++ {
		for v := u + 1; v < 100; v += 7 {
			a := DesignatedEndpoint(u, v, false, false, 9)
			b := DesignatedEndpoint(v, u, false, false, 9) // arg order must not matter
			if (a == u) != (b == u) {
				t.Fatalf("designation of {%d,%d} depends on argument order", u, v)
			}
			if a == u {
				pickedU++
			} else {
				pickedV++
			}
		}
	}
	if pickedU == 0 || pickedV == 0 {
		t.Errorf("designation coin never picks one side (u:%d v:%d)", pickedU, pickedV)
	}
}

func TestDesignatedEndpointAvoidsHeavy(t *testing.T) {
	for u := int32(0); u < 50; u++ {
		v := u + 1
		if got := DesignatedEndpoint(u, v, true, false, 1); got != v {
			t.Fatalf("heavy u: designated %d, want light endpoint %d", got, v)
		}
		if got := DesignatedEndpoint(u, v, false, true, 1); got != u {
			t.Fatalf("heavy v: designated %d, want light endpoint %d", got, u)
		}
	}
}

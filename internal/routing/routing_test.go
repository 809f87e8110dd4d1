package routing

import (
	"testing"

	"kmachine/internal/core"
	"kmachine/internal/rng"
)

func TestDeliverSplitsFinalsAndForwards(t *testing.T) {
	inbox := []core.Envelope[Hop[int]]{
		{From: 1, To: 2, Words: 1, Msg: Hop[int]{Final: 2, Msg: 10}},
		{From: 1, To: 2, Words: 1, Msg: Hop[int]{Final: 5, Msg: 20}},
		{From: 3, To: 2, Words: 2, Msg: Hop[int]{Final: 2, Msg: 30}},
	}
	buckets := make([][]core.Envelope[Hop[int]], 6)
	delivered := Deliver(core.MachineID(2), inbox, nil, buckets)
	if len(delivered) != 2 || delivered[0] != 10 || delivered[1] != 30 {
		t.Errorf("delivered = %v, want [10 30]", delivered)
	}
	assertBucketed(t, buckets)
	if fw := buckets[5]; len(fw) != 1 || fw[0].To != 5 || fw[0].Words != 1 || fw[0].Msg.Final != 5 || fw[0].Msg.Msg != 20 {
		t.Errorf("bucket 5 = %+v, want one forward of 20 to 5", fw)
	}
	for j, b := range buckets {
		if j != 5 && len(b) != 0 {
			t.Errorf("bucket %d = %+v, want empty", j, b)
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

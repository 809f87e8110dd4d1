package transport_test

import (
	"reflect"
	"testing"

	"kmachine/internal/transport"
)

type env = transport.Envelope[int]

// outbox is machine 1's outbox of a 4-machine cluster: envelopes to
// every machine, itself included, interleaved, each tagged with its
// position so order can be checked.
func outbox() []env {
	to := []transport.MachineID{2, 1, 0, 2, 3, 1, 0, 2}
	out := make([]env, len(to))
	for i, j := range to {
		out[i] = env{From: 1, To: j, Words: int32(i), Msg: i}
	}
	return out
}

func TestSplitIsStablePerDestination(t *testing.T) {
	const k, self = 4, 1
	out := outbox()
	buckets, bad := new(transport.Splitter[int]).Split(k, out)
	if bad != -1 {
		t.Fatalf("bad = %d, want -1", bad)
	}
	want := make([][]env, k)
	for _, e := range out {
		want[e.To] = append(want[e.To], e)
	}
	for j := range want {
		if !reflect.DeepEqual(buckets[j], want[j]) {
			t.Errorf("bucket %d = %v, want %v (out's order)", j, buckets[j], want[j])
		}
	}
	if msgs := []int{buckets[self][0].Msg, buckets[self][1].Msg}; !reflect.DeepEqual(msgs, []int{1, 5}) {
		t.Errorf("self-addressed envelopes landed as %v at bucket %d, want [1 5]", msgs, self)
	}
}

func TestSplitReportsTheFirstBadDestinationAndPlacesNothing(t *testing.T) {
	const k = 4
	var s transport.Splitter[int]
	good := outbox()
	before, _ := s.Split(k, good)
	kept := make([][]env, k)
	for j, b := range before {
		kept[j] = append([]env(nil), b...)
	}
	out := outbox()
	out[3].To, out[6].To = k, -1
	for i := range out {
		out[i].Msg += 100
	}
	buckets, bad := s.Split(k, out)
	if buckets != nil || bad != 3 {
		t.Fatalf("Split = %v, %d; want nil, 3 (the first out-of-range envelope in out's order)", buckets, bad)
	}
	// The earlier buckets are windows of the slab: nothing overwrote them.
	for j := range before {
		if !reflect.DeepEqual(before[j], kept[j]) {
			t.Errorf("bucket %d became %v after a refused Split, want %v", j, before[j], kept[j])
		}
	}
}

func TestSplitHandsASingleDestinationThrough(t *testing.T) {
	const k = 4
	var s transport.Splitter[int]
	s.Split(k, outbox()) // the previous call's buckets must not linger
	out := []env{{To: 2, Msg: 1}, {To: 2, Msg: 2}, {To: 2, Msg: 3}}
	buckets, _ := s.Split(k, out)
	if len(buckets[2]) != len(out) || &buckets[2][0] != &out[0] {
		t.Errorf("bucket 2 is %d envelopes at %p, want out itself (%d at %p)", len(buckets[2]), &buckets[2][0], len(out), &out[0])
	}
	for j, b := range buckets {
		if j != 2 && len(b) != 0 {
			t.Errorf("bucket %d holds %v, want nothing", j, b)
		}
	}
}

func TestSplitAllocatesNothingOnceGrown(t *testing.T) {
	const k = 4
	var s transport.Splitter[int]
	out := outbox()
	s.Split(k, out)
	if n := testing.AllocsPerRun(100, func() { s.Split(k, out) }); n != 0 {
		t.Errorf("Split allocated %.0f times per call, want 0", n)
	}
}

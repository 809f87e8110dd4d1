package core

import (
	"reflect"
	"testing"
)

// fillBuckets gives machine self's buckets[j] j+1 envelopes addressed to
// j, tagged with (self, j, position) so order can be checked.
func fillBuckets(self MachineID, buckets [][]Envelope[pingMsg]) {
	for j := range buckets {
		buckets[j] = buckets[j][:0]
		for n := 0; n <= j; n++ {
			buckets[j] = append(buckets[j], Envelope[pingMsg]{To: MachineID(j), Words: 1,
				Msg: pingMsg{Hop: 100*int(self) + 10*j + n}})
		}
	}
}

// TestEmitBucketsRestIsSelfBucket: inside a run every peer's bucket
// leaves through the emitter, and the rest EmitBuckets returns is the
// self-addressed bucket itself — its storage, not a copy.
func TestEmitBucketsRestIsSelfBucket(t *testing.T) {
	const k = 3
	c := NewCluster(Config{K: k, Bandwidth: 1, Seed: 1}, func(MachineID) Machine[pingMsg] {
		buckets := make([][]Envelope[pingMsg], k)
		return MachineFunc[pingMsg](func(ctx *StepContext, inbox []Envelope[pingMsg]) ([]Envelope[pingMsg], bool) {
			if ctx.Superstep == 1 {
				var got, want []int
				for _, env := range inbox {
					got = append(got, env.Msg.Hop)
				}
				for from := 0; from < k; from++ {
					for n := 0; n <= int(ctx.Self); n++ {
						want = append(want, 100*from+10*int(ctx.Self)+n)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("machine %d inbox %v, want %v", ctx.Self, got, want)
				}
			}
			if ctx.Superstep > 0 {
				return nil, true
			}
			fillBuckets(ctx.Self, buckets)
			self := buckets[ctx.Self]
			rest := EmitBuckets(ctx, buckets)
			if len(rest) != len(self) || &rest[0] != &self[0] {
				t.Errorf("machine %d: rest is %d envelopes at %p, want the self bucket's %d at %p",
					ctx.Self, len(rest), &rest[0], len(self), &self[0])
			}
			return rest, false
		})
	})
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Each machine sent j+1 words to every peer j: 1+2+3 minus its own.
	if want := int64(k*(1+2+3) - (1 + 2 + 3)); st.Words != want {
		t.Errorf("Words = %d, want %d", st.Words, want)
	}
}

// TestEmitBucketsWithoutEmitter: a Step driven outside a run has no
// link to emit to, so the rest is the self bucket followed by every
// other bucket in peer order, each in program order, and the self
// bucket itself still reads as before.
func TestEmitBucketsWithoutEmitter(t *testing.T) {
	const k = 3
	sc := &StepContext{Self: 1, K: k}
	buckets := make([][]Envelope[pingMsg], k)
	fillBuckets(sc.Self, buckets)
	self := append([]Envelope[pingMsg](nil), buckets[1]...)
	var want []Envelope[pingMsg]
	for _, j := range []int{1, 0, 2} {
		want = append(want, buckets[j]...)
	}
	rest := EmitBuckets(sc, buckets)
	if !reflect.DeepEqual(rest, want) {
		t.Errorf("rest = %v, want %v", rest, want)
	}
	if !reflect.DeepEqual(buckets[1], self) {
		t.Errorf("self bucket became %v, want %v", buckets[1], self)
	}
}

// TestEmitBatchRefusesBadPairs: the link sees only what EmitBatch
// accepts — at most one batch per peer per superstep, never to the
// sender itself or out of range, every envelope addressed to that peer —
// so the loopback stages without checking.
func TestEmitBatchRefusesBadPairs(t *testing.T) {
	const k = 3
	batch := func(to MachineID) []Envelope[pingMsg] { return []Envelope[pingMsg]{{To: to, Words: 1}} }
	var got []Envelope[pingMsg]
	c := NewCluster(Config{K: k, Bandwidth: 1, Seed: 1}, func(id MachineID) Machine[pingMsg] {
		return MachineFunc[pingMsg](func(ctx *StepContext, inbox []Envelope[pingMsg]) ([]Envelope[pingMsg], bool) {
			if ctx.Self == 1 && ctx.Superstep == 1 {
				got = append(got, inbox...)
			}
			if ctx.Self != 0 || ctx.Superstep > 0 {
				return nil, true
			}
			for _, bad := range []struct {
				name string
				to   MachineID
				b    []Envelope[pingMsg]
			}{{"to itself", 0, batch(0)}, {"out of range", k, batch(k)}, {"negative", -1, batch(-1)}, {"misaddressed", 1, batch(2)}} {
				if EmitBatch(ctx, bad.to, bad.b) {
					t.Errorf("EmitBatch took a batch %s", bad.name)
				}
			}
			if !EmitBatch(ctx, 1, batch(1)) {
				t.Error("EmitBatch refused a good batch")
			}
			if EmitBatch(ctx, 1, batch(1)) {
				t.Error("EmitBatch took a second batch to one peer")
			}
			return nil, false
		})
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].From != 0 {
		t.Errorf("machine 1 received %+v, want the one batch machine 0's link took", got)
	}
}

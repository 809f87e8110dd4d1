package inmem_test

// The transport.Transport contract, run against every implementation a
// cluster can be handed: the loopback, the loopback-TCP mesh, and the
// chaos wrapper (inert, over the loopback). What core relies on is
// asserted here once, substrate by substrate: sender-ID-ordered inboxes
// with self-delivery in place, the caller's ownership of its batches,
// Exchange being exactly Begin+Finish, and the misuse errors.

import (
	"context"
	"reflect"
	"testing"

	"kmachine/internal/rng"
	"kmachine/internal/transport"
	"kmachine/internal/transport/chaos"
	"kmachine/internal/transport/inmem"
	"kmachine/internal/transport/tcp"
	"kmachine/internal/transport/wire"
)

type msg struct{ Tag int64 }

type codec struct{}

func (codec) Append(dst []byte, m msg) ([]byte, error) { return wire.AppendVarint(dst, m.Tag), nil }

func (codec) Decode(src []byte) (msg, int, error) {
	c := wire.Cursor{Src: src}
	m := msg{Tag: c.Varint()}
	return m, c.Off, c.Err
}

type (
	envelope = transport.Envelope[msg]
	id       = transport.MachineID
)

var substrates = []struct {
	name string
	open func(t *testing.T, k int) transport.Transport[msg]
}{
	{"inmem", func(t *testing.T, k int) transport.Transport[msg] { return inmem.New[msg](k) }},
	{"tcp", func(t *testing.T, k int) transport.Transport[msg] {
		tr, err := tcp.New[msg](k, codec{})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}},
	{"chaos(inmem)", func(t *testing.T, k int) transport.Transport[msg] {
		return chaos.Wrap[msg](inmem.New[msg](k))
	}},
}

// traffic builds machine i's per-destination batches for one superstep:
// two envelopes to every machine, itself included, tagged so that an
// inbox position identifies (superstep, sender, receiver, ordinal).
func traffic(k, step, i int) [][]envelope {
	perDest := make([][]envelope, k)
	for j := 0; j < k; j++ {
		for n := 0; n < 2; n++ {
			perDest[j] = append(perDest[j], envelope{From: id(i), To: id(j), Words: int32(1 + n),
				Msg: msg{Tag: int64(step*1000 + i*100 + j*10 + n)}})
		}
	}
	return perDest
}

// superstep drives one Begin/SendBatch/Finish cycle: machine i emits its
// batch for peer j eagerly when eager(i, j) says so and leaves the rest
// (self-addressed envelopes always) to Finish.
func superstep(t *testing.T, tr transport.Transport[msg], step int, perDest [][][]envelope, eager func(i, j int) bool) [][]envelope {
	t.Helper()
	ctx := context.Background()
	k := len(perDest)
	if err := tr.Begin(ctx, step); err != nil {
		t.Fatalf("superstep %d: Begin: %v", step, err)
	}
	rest := make([][]envelope, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if len(perDest[i][j]) == 0 {
				continue
			}
			if j != i && eager(i, j) {
				if err := tr.SendBatch(id(i), id(j), perDest[i][j]); err != nil {
					t.Fatalf("superstep %d: SendBatch %d->%d: %v", step, i, j, err)
				}
			} else {
				rest[i] = append(rest[i], perDest[i][j]...)
			}
		}
	}
	inboxes, err := tr.Finish(ctx, step, rest)
	if err != nil {
		t.Fatalf("superstep %d: Finish: %v", step, err)
	}
	return inboxes
}

func TestTransportContract(t *testing.T) {
	const k = 4
	evenPeers := func(i, j int) bool { return j%2 == 0 }
	for _, sub := range substrates {
		t.Run(sub.name, func(t *testing.T) {
			t.Run("SenderOrderedInboxesSelfInPlace", func(t *testing.T) {
				tr := sub.open(t, k)
				defer tr.Close()
				all := make([][][]envelope, k)
				for i := range all {
					all[i] = traffic(k, 0, i)
				}
				got := superstep(t, tr, 0, all, evenPeers)
				for j := 0; j < k; j++ {
					var want []envelope
					for s := 0; s < k; s++ {
						want = append(want, all[s][j]...)
					}
					if !reflect.DeepEqual(got[j], want) {
						t.Errorf("inbox %d:\n got  %+v\n want %+v", j, got[j], want)
					}
				}
			})

			t.Run("InboxSurvivesNextFinishAndCallerRecycles", func(t *testing.T) {
				tr := sub.open(t, k)
				defer tr.Close()
				// One set of caller-owned batch slices, overwritten in
				// place for every superstep: the transport must be done
				// with them when Finish returns (-race sees a late read),
				// and each superstep's inboxes hold what was sent in it.
				// (An inbox itself is valid only until the next Finish,
				// which may assemble over it.)
				all := make([][][]envelope, k)
				for i := range all {
					all[i] = traffic(k, 0, i)
				}
				for step := 0; step < 6; step++ {
					for i := range all {
						for j, b := range traffic(k, step, i) {
							copy(all[i][j], b)
						}
					}
					got := superstep(t, tr, step, all, evenPeers)
					for j := 0; j < k; j++ {
						var want []envelope
						for s := 0; s < k; s++ {
							want = append(want, traffic(k, step, s)[j]...)
						}
						if !reflect.DeepEqual(got[j], want) {
							t.Fatalf("superstep %d inbox %d:\n got  %+v\n want %+v", step, j, got[j], want)
						}
					}
				}
			})

			t.Run("ExchangeIsBeginPlusFinish", func(t *testing.T) {
				a, b := sub.open(t, k), sub.open(t, k)
				defer a.Close()
				defer b.Close()
				r := rng.New(99)
				for step := 0; step < 20; step++ {
					all := make([][][]envelope, k)
					outs := make([][]envelope, k)
					for i := range all {
						all[i] = make([][]envelope, k)
						for n := r.Intn(12); n > 0; n-- {
							j := r.Intn(k)
							all[i][j] = append(all[i][j], envelope{From: id(i), To: id(j),
								Words: int32(r.Intn(9)), Msg: msg{Tag: int64(r.Uint64() >> 1)}})
						}
						for j := range all[i] {
							outs[i] = append(outs[i], all[i][j]...)
						}
					}
					want, err := a.Exchange(context.Background(), step, outs)
					if err != nil {
						t.Fatalf("superstep %d: Exchange: %v", step, err)
					}
					got := superstep(t, b, step, all, func(i, j int) bool { return (i+j+step)%2 == 0 })
					for j := 0; j < k; j++ {
						if len(got[j]) == 0 && len(want[j]) == 0 {
							continue
						}
						if !reflect.DeepEqual(got[j], want[j]) {
							t.Fatalf("superstep %d inbox %d:\n Begin+Finish: %+v\n Exchange:     %+v", step, j, got[j], want[j])
						}
					}
				}
			})

			// Misuse must come back as an error, never a panic, a hang or
			// a silently wrong inbox. Each case gets a fresh transport: an
			// error may be fatal for the one it hit.
			ctx := context.Background()
			batch := func(from, to int) []envelope {
				return []envelope{{From: id(from), To: id(to), Words: 1}}
			}
			misuse := []struct {
				name string
				do   func(tr transport.Transport[msg]) error
			}{
				{"SendBatchWithNoOpenSuperstep", func(tr transport.Transport[msg]) error {
					return tr.SendBatch(0, 1, batch(0, 1))
				}},
				{"TwoBatchesToOnePeer", func(tr transport.Transport[msg]) error {
					if err := tr.Begin(ctx, 0); err != nil {
						t.Fatal(err)
					}
					if err := tr.SendBatch(0, 1, batch(0, 1)); err != nil {
						t.Fatal(err)
					}
					return tr.SendBatch(0, 1, batch(0, 1))
				}},
				{"RestEnvelopesForAnEmittedPeer", func(tr transport.Transport[msg]) error {
					if err := tr.Begin(ctx, 0); err != nil {
						t.Fatal(err)
					}
					if err := tr.SendBatch(0, 1, batch(0, 1)); err != nil {
						t.Fatal(err)
					}
					rest := make([][]envelope, k)
					rest[0] = batch(0, 1)
					_, err := tr.Finish(ctx, 0, rest)
					return err
				}},
				{"FinishWithoutBegin", func(tr transport.Transport[msg]) error {
					_, err := tr.Finish(ctx, 0, make([][]envelope, k))
					return err
				}},
				{"FinishOfAnotherSuperstep", func(tr transport.Transport[msg]) error {
					if err := tr.Begin(ctx, 0); err != nil {
						t.Fatal(err)
					}
					_, err := tr.Finish(ctx, 1, make([][]envelope, k))
					return err
				}},
				{"BeginWithOneStillOpen", func(tr transport.Transport[msg]) error {
					if err := tr.Begin(ctx, 0); err != nil {
						t.Fatal(err)
					}
					return tr.Begin(ctx, 1)
				}},
			}
			for _, m := range misuse {
				t.Run(m.name, func(t *testing.T) {
					tr := sub.open(t, k)
					defer tr.Close()
					if err := m.do(tr); err == nil {
						t.Error("misuse accepted without error")
					}
				})
			}
		})
	}
}

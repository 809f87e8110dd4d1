package inmem_test

// The transport.Transport contract, run against both implementations
// the benchmark times: the loopback and the loopback-mesh fixture.
// Exchange must return sender-ID-ordered inboxes with self-delivery in
// place, and leave the caller free to recycle its outboxes once it
// returns. (Deliver with per-peer batches is the in-process link's:
// core's TestEmittedAndRestAccountIdentically compares its inboxes.)

import (
	"context"
	"reflect"
	"testing"

	"kmachine/internal/transport"
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

// exchange runs one superstep: every machine's batches, in destination
// order, as its outbox.
func exchange(t *testing.T, tr transport.Transport[msg], step int, perDest [][][]envelope) [][]envelope {
	t.Helper()
	outs := make([][]envelope, len(perDest))
	for i := range perDest {
		for _, b := range perDest[i] {
			outs[i] = append(outs[i], b...)
		}
	}
	inboxes, err := tr.Exchange(context.Background(), step, outs)
	if err != nil {
		t.Fatalf("superstep %d: Exchange: %v", step, err)
	}
	return inboxes
}

func TestTransportContract(t *testing.T) {
	const k = 4
	for _, sub := range substrates {
		t.Run(sub.name, func(t *testing.T) {
			t.Run("SenderOrderedInboxesSelfInPlace", func(t *testing.T) {
				tr := sub.open(t, k)
				defer tr.Close()
				all := make([][][]envelope, k)
				for i := range all {
					all[i] = traffic(k, 0, i)
				}
				got := exchange(t, tr, 0, all)
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
				// with them when Exchange returns (-race sees a late
				// read), and each superstep's inboxes hold what was sent
				// in it. (An inbox itself is valid only until the next
				// Exchange, which may assemble over it.)
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
					got := exchange(t, tr, step, all)
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
		})
	}
}

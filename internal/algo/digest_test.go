package algo

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"kmachine/internal/core"
	"kmachine/internal/graph"
	"kmachine/internal/obs"
	"kmachine/internal/partition"
	"kmachine/internal/transport"
)

// The ring runs of retry_test.go as registry algorithms, forward and
// back: two computations with the same state layout, so only the run
// digest tells their cuts apart.
func init() {
	for name, back := range map[string]bool{"ring": false, "ring-back": true} {
		Register(Spec[echoMsg, int64, []int64]{
			Name: name,
			Build: func(prob Problem) (Algorithm[echoMsg, int64, []int64], partition.Input, error) {
				return Algorithm[echoMsg, int64, []int64]{
					Name:  name,
					Codec: echoCodec{},
					NewMachine: func(view partition.View) (Machine[echoMsg, int64], error) {
						return &ringMachine{self: view.Self(), back: back}, nil
					},
					Merge: func(locals []int64) []int64 { return locals },
				}, partition.NewRVP(graph.NewBuilder(prob.N, false).Build(), prob.K, prob.Seed+1), nil
			},
			Hash: func(sums []int64) uint64 {
				h := NewHash64()
				for _, s := range sums {
					h.Add(uint64(s))
				}
				return h.Sum()
			},
		})
	}
}

// stepSink records the superstep of every cut stored through it.
type stepSink struct {
	core.CheckpointSink
	mu    sync.Mutex
	steps []int
}

func (s *stepSink) Put(step int, blob []byte) error {
	s.mu.Lock()
	s.steps = append(s.steps, step)
	s.mu.Unlock()
	return s.CheckpointSink.Put(step, blob)
}

// TestForeignDigestNeverResumed: a sink that holds another run's cuts —
// another seed, another algorithm, another k — is never installed.
// Each run into the one sink reproduces its unarmed golden output and
// Stats, and its first stored cut is at superstep Every-1. The same run
// again resumes from its own newest cut and stores none.
func TestForeignDigestNeverResumed(t *testing.T) {
	const every = 2
	base := Problem{N: 16, K: 4, Seed: 13}
	other := func(f func(*Problem)) Problem { p := base; f(&p); return p }
	for _, kind := range []transport.Kind{transport.InMem, transport.TCP} {
		t.Run(string(kind), func(t *testing.T) {
			sink := core.NewMemorySink()
			runs := []struct {
				name string
				prob Problem
			}{
				{"ring", base},
				{"ring", other(func(p *Problem) { p.Seed = 14 })},
				{"ring-back", base},
				{"ring", other(func(p *Problem) { p.K = 5 })},
				{"ring", base},
			}
			for _, r := range runs {
				entry, _ := Lookup(r.name)
				golden, err := entry.Run(r.prob, kind)
				if err != nil {
					t.Fatal(err)
				}
				rec := &stepSink{CheckpointSink: sink}
				r.prob.Checkpoint = CheckpointSpec{Every: every, Sink: rec}
				got, err := entry.Run(r.prob, kind)
				if err != nil {
					t.Fatalf("%s seed %d k=%d: %v", r.name, r.prob.Seed, r.prob.K, err)
				}
				if got.Hash != golden.Hash || !reflect.DeepEqual(got.Stats, golden.Stats) {
					t.Errorf("%s seed %d k=%d: hash %016x Stats %+v, golden %016x %+v",
						r.name, r.prob.Seed, r.prob.K, got.Hash, got.Stats, golden.Hash, golden.Stats)
				}
				if len(rec.steps) == 0 || rec.steps[0] != every-1 {
					t.Errorf("%s seed %d k=%d stored cuts at %v, want the first at superstep %d",
						r.name, r.prob.Seed, r.prob.K, rec.steps, every-1)
				}
			}
			entry, _ := Lookup("ring")
			rec := &stepSink{CheckpointSink: sink}
			again := other(func(p *Problem) { p.Checkpoint = CheckpointSpec{Every: every, Sink: rec} })
			if _, err := entry.Run(again, kind); err != nil || len(rec.steps) != 0 {
				t.Errorf("the same run again stored cuts at %v (err %v), want it resumed past its newest", rec.steps, err)
			}
		})
	}
}

// TestRunDigestCoversTheProblem: the run digest changes with the
// algorithm, its protocol number, every resolved field that shapes the computation and the
// input file's size and modification time, and with nothing a restart
// may change and still resume.
func TestRunDigestCoversTheProblem(t *testing.T) {
	input := filepath.Join(t.TempDir(), "edges.txt")
	if err := os.WriteFile(input, []byte("0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	base := Problem{N: 100, K: 4, Seed: 1, InputPath: input}
	digest := func(name string, p Problem) uint64 {
		t.Helper()
		d, err := p.withDefaults().digest(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	want := digest("ring", base)
	same := map[string]Problem{
		"defaults spelled out": {N: 100, K: 4, Seed: 1, InputPath: input, EdgeP: 0.1, Bandwidth: core.DefaultBandwidth(100), Eps: 0.15},
		"Top":                  {N: 100, K: 4, Seed: 1, InputPath: input, Top: 9},
		"run knobs": {N: 100, K: 4, Seed: 1, InputPath: input, SuperstepTimeout: time.Second,
			Context: context.Background(), Recorder: obs.NewTrace(8, 4)},
		"checkpoint": {N: 100, K: 4, Seed: 1, InputPath: input, Checkpoint: CheckpointSpec{Every: 7, Dir: "d"}},
	}
	for what, p := range same {
		if digest("ring", p) != want {
			t.Errorf("%s changed the digest", what)
		}
	}
	differ := map[string]Problem{
		"N":         {N: 101, K: 4, Seed: 1, InputPath: input},
		"EdgeP":     {N: 100, K: 4, Seed: 1, InputPath: input, EdgeP: 0.2},
		"K":         {N: 100, K: 5, Seed: 1, InputPath: input},
		"Seed":      {N: 100, K: 4, Seed: 2, InputPath: input},
		"Bandwidth": {N: 100, K: 4, Seed: 1, InputPath: input, Bandwidth: 3},
		"Eps":       {N: 100, K: 4, Seed: 1, InputPath: input, Eps: 0.2},
		"InputPath": {N: 100, K: 4, Seed: 1},
	}
	for what, p := range differ {
		if digest("ring", p) == want {
			t.Errorf("%s left the digest unchanged", what)
		}
	}
	if digest("ring-back", base) == want {
		t.Error("the algorithm name left the digest unchanged")
	}
	if d, err := base.withDefaults().digest("ring", 1); err != nil || d == want {
		t.Errorf("a bumped protocol left the digest unchanged (err %v)", err)
	}
	if err := os.WriteFile(input, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	grown := digest("ring", base)
	if grown == want {
		t.Error("a longer input file left the digest unchanged")
	}
	if err := os.Chtimes(input, time.Time{}, time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	if digest("ring", base) == grown {
		t.Error("a touched input file left the digest unchanged")
	}
}

package algo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kmachine/internal/core"
	"kmachine/internal/graph"
	"kmachine/internal/partition"
	"kmachine/internal/transport"
	"kmachine/internal/transport/node"
	"kmachine/internal/transport/wire"
)

// The algo package itself registers nothing (algorithm packages do, in
// their init), so this test file owns the registry contents and can
// exercise Register/Lookup/Names against a toy echo algorithm end to
// end — including the substrate runners, without depending on any real
// algorithm package (which would be an import cycle).

type echoMsg struct{ X int64 }

type echoCodec struct{}

func (echoCodec) Append(dst []byte, m echoMsg) ([]byte, error) {
	return wire.AppendVarint(dst, m.X), nil
}

func (echoCodec) Decode(src []byte) (echoMsg, int, error) {
	c := wire.Cursor{Src: src}
	m := echoMsg{X: c.Varint()}
	return m, c.Off, c.Err
}

// echoMachine sends its ID to the next machine in superstep 0 and
// records what it receives.
type echoMachine struct {
	self core.MachineID
	got  int64
}

func (m *echoMachine) Step(ctx *core.StepContext, inbox []core.Envelope[echoMsg]) ([]core.Envelope[echoMsg], bool) {
	for _, e := range inbox {
		m.got += e.Msg.X
	}
	if ctx.Superstep > 0 {
		return nil, true
	}
	return []core.Envelope[echoMsg]{{
		To:    core.MachineID((int(m.self) + 1) % ctx.K),
		Words: 1,
		Msg:   echoMsg{X: int64(m.self) + 1},
	}}, true
}

func (m *echoMachine) Output() int64 { return m.got }

func echoDescriptor() Algorithm[echoMsg, int64, int64] {
	return Algorithm[echoMsg, int64, int64]{
		Name:  "echo",
		Codec: echoCodec{},
		NewMachine: func(view partition.View) (Machine[echoMsg, int64], error) {
			echoMachines.Add(1)
			return &echoMachine{self: view.Self()}, nil
		},
		Merge: func(locals []int64) int64 {
			var sum int64
			for _, l := range locals {
				sum += l
			}
			return sum
		},
	}
}

// echoBuilds counts the registered echo's input builds, echoMachines
// every echo machine built (at once, so atomically).
var (
	echoBuilds   int
	echoMachines atomic.Int64
)

func init() {
	Register(Spec[echoMsg, int64, int64]{
		Name: "echo",
		Doc:  "test-only ring echo",
		Build: func(prob Problem) (Algorithm[echoMsg, int64, int64], partition.Input, error) {
			echoBuilds++
			g := graph.NewBuilder(prob.N, false).Build()
			return echoDescriptor(), partition.NewRVP(g, prob.K, prob.Seed+1), nil
		},
		Hash: func(sum int64) uint64 {
			h := NewHash64()
			h.Add(uint64(sum))
			return h.Sum()
		},
	})
}

func TestRegistryLookupAndNames(t *testing.T) {
	names := Names()
	found := false
	for _, n := range names {
		if n == "echo" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Names() = %v, missing echo", names)
	}
	if _, ok := Lookup("echo"); !ok {
		t.Fatal("Lookup(echo) failed")
	}
	if _, ok := Lookup("no-such-algorithm"); ok {
		t.Fatal("Lookup invented an algorithm")
	}
	entries := Entries()
	if len(entries) != len(names) {
		t.Fatalf("Entries() returned %d rows, Names() %d", len(entries), len(names))
	}
}

func TestEchoAcrossSubstrates(t *testing.T) {
	entry, _ := Lookup("echo")
	prob := Problem{N: 64, K: 5, Seed: 3}

	mem, err := entry.Run(prob, transport.InMem)
	if err != nil {
		t.Fatal(err)
	}
	// The ring sends 1+2+...+k once around: the sum of deliveries is
	// k(k+1)/2.
	wantHash := func() uint64 {
		h := NewHash64()
		h.Add(uint64(5 * 6 / 2))
		return h.Sum()
	}()
	if mem.Hash != wantHash {
		t.Errorf("inmem hash %016x, want %016x", mem.Hash, wantHash)
	}

	tcp, err := entry.Run(prob, transport.TCP)
	if err != nil {
		t.Fatal(err)
	}
	if tcp.Hash != mem.Hash {
		t.Errorf("tcp hash %016x, inmem %016x", tcp.Hash, mem.Hash)
	}
	if tcp.Stats.Rounds != mem.Stats.Rounds || tcp.Stats.Words != mem.Stats.Words {
		t.Errorf("tcp stats (rounds=%d words=%d), inmem (rounds=%d words=%d)",
			tcp.Stats.Rounds, tcp.Stats.Words, mem.Stats.Rounds, mem.Stats.Words)
	}
}

// TestEchoRunJobMatches: the standing-mesh runner (Submit) is
// bit-identical to Run — and the mesh carries several jobs.
func TestEchoRunJobMatches(t *testing.T) {
	entry, _ := Lookup("echo")
	prob := Problem{N: 64, K: 5, Seed: 3}
	ref, err := entry.Run(prob, transport.InMem)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := node.NewLocalMesh(prob.K)
	if err != nil {
		t.Fatal(err)
	}
	defer lm.Close()
	for job := uint64(1); job <= 3; job++ {
		got, err := Submit("echo", prob, lm, job)
		if err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
		if got.Hash != ref.Hash {
			t.Errorf("job %d hash %016x, want %016x", job, got.Hash, ref.Hash)
		}
		if got.Stats.Rounds != ref.Stats.Rounds || got.Stats.Words != ref.Stats.Words {
			t.Errorf("job %d stats (rounds=%d words=%d), want (rounds=%d words=%d)",
				job, got.Stats.Rounds, got.Stats.Words, ref.Stats.Rounds, ref.Stats.Words)
		}
	}
	if _, err := Submit("no-such-algorithm", prob, lm, 4); err == nil {
		t.Fatal("Submit invented an algorithm")
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(Spec[echoMsg, int64, int64]{
		Name: "echo",
		Build: func(Problem) (Algorithm[echoMsg, int64, int64], partition.Input, error) {
			return echoDescriptor(), nil, nil
		},
		Hash: func(int64) uint64 { return 0 },
	})
}

func TestHash64Canonical(t *testing.T) {
	a, b := NewHash64(), NewHash64()
	a.Add(1)
	a.Add(2)
	b.Add(1)
	b.Add(2)
	if a.Sum() != b.Sum() {
		t.Error("same stream, different sums")
	}
	c := NewHash64()
	c.Add(2)
	c.Add(1)
	if c.Sum() == a.Sum() {
		t.Error("order-swapped stream collided")
	}
}

// TestGraphInputRejectsImpossibleProblems: outside input is validated
// where it enters, so a probability that is not one, or an n whose
// vertex IDs would wrap int32, is an error from GraphInput and never
// reaches a generator panic. The zero-value default stays a probability
// for n<10.
func TestGraphInputRejectsImpossibleProblems(t *testing.T) {
	for _, prob := range []Problem{
		{N: 1000, K: 4, EdgeP: 2},
		{N: 1000, K: 4, EdgeP: -0.1},
		{N: 1000, K: 4, EdgeP: math.NaN()},
		{N: math.MaxInt32 + 1, K: 4, EdgeP: 1e-9},
	} {
		if _, err := GraphInput(prob); err == nil {
			t.Errorf("GraphInput(n=%d p=%v) succeeded, want an error", prob.N, prob.EdgeP)
		}
	}
	small := Problem{N: 5, K: 2}.withDefaults()
	if small.EdgeP != 1 {
		t.Fatalf("default edge probability at n=5 is %v, want 1", small.EdgeP)
	}
	if _, err := GraphInput(small); err != nil {
		t.Errorf("GraphInput(n=5, default p): %v", err)
	}
}

// TestRegistryInputIsPartitionLocal: there is one way a Problem becomes
// machine views. Generated or read from InputPath, graph or edgeless,
// it resolves to a *partition.ShardedInput — the helpers' return types
// say so — whose views are CSR shards with no global graph behind
// them; and a malformed edge list fails before any machine is built,
// with the line named.
func TestRegistryInputIsPartitionLocal(t *testing.T) {
	write := func(name, body string) string {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, prob := range []Problem{
		{N: 50, K: 4, Seed: 1, EdgeP: 0.1},
		{N: 50, K: 4, Seed: 1, EdgeP: 1},
		{N: 50, K: 4, Seed: 1, EdgeP: 0.1, InputPath: write("edges.txt", "0 1\n# a comment\n1 2\n49 0\n")},
	} {
		graphIn, err := GraphInput(prob)
		if err != nil {
			t.Fatalf("GraphInput(%+v): %v", prob, err)
		}
		for _, in := range []*partition.ShardedInput{graphIn, EdgelessInput(prob)} {
			views, err := in.MachineViews(partition.AllMachines(prob.K))
			if err != nil {
				t.Fatalf("MachineViews(%+v): %v", prob, err)
			}
			if len(views) != prob.K {
				t.Errorf("MachineViews(%+v): %d views, want %d", prob, len(views), prob.K)
			}
		}
	}

	in, err := GraphInput(Problem{N: 50, K: 4, Seed: 1, InputPath: write("bad.txt", "0 1\n1 two\n2 3\n")})
	if err != nil {
		t.Fatalf("GraphInput opened the file early: %v", err)
	}
	a, built := echoDescriptor(), 0
	newMachine := a.NewMachine
	a.NewMachine = func(v partition.View) (Machine[echoMsg, int64], error) {
		built++
		return newMachine(v)
	}
	_, _, err = Run(a, in, core.Config{K: 4, Bandwidth: 1})
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("malformed edge list: err = %v, want one naming line 2", err)
	}
	if built != 0 {
		t.Errorf("%d machines were built before the edge list was rejected", built)
	}
}

// TestStandaloneRejectsCheckpointing: one process of k can never
// complete a cut, so a checkpoint policy on a standalone run is an
// error before any input is built or peer dialled — it used to be
// dropped silently.
func TestStandaloneRejectsCheckpointing(t *testing.T) {
	entry, _ := Lookup("echo")
	prob := Problem{N: 64, K: 2, Seed: 3, Checkpoint: CheckpointSpec{Every: 2}}
	builds := echoBuilds
	_, err := entry.RunStandalone(prob, node.Place{ID: 0, Listen: "127.0.0.1:0", Peers: []string{"127.0.0.1:1", "127.0.0.1:2"}})
	if err == nil || !strings.Contains(err.Error(), "cut") {
		t.Errorf("RunStandalone with Checkpoint.Every=2: err = %v, want the one-process-cannot-cut error", err)
	}
	if echoBuilds != builds {
		t.Error("RunStandalone built the input before refusing the checkpoint policy")
	}
}

// TestStandaloneRejectsMachineOutOfRange: a standalone machine ID
// outside [0,k) is an error naming the ID, before any input is built or
// peer dialled. It used to reach the shard builder first and panic
// there ("partition: machine 7 out of [0,4)").
func TestStandaloneRejectsMachineOutOfRange(t *testing.T) {
	entry, _ := Lookup("echo")
	prob := Problem{N: 100, K: 4, Seed: 3}
	peers := []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3", "127.0.0.1:4"}
	for _, id := range []int{-1, prob.K} {
		builds := echoBuilds
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("RunStandalone as machine %d panicked: %v", id, p)
				}
			}()
			_, err := entry.RunStandalone(prob, node.Place{ID: id, Listen: "127.0.0.1:0", Peers: peers})
			if want := fmt.Sprintf("machine %d out of [0,%d)", id, prob.K); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("RunStandalone as machine %d: err = %v, want one saying %q", id, err, want)
			}
		}()
		if echoBuilds != builds {
			t.Errorf("RunStandalone as machine %d built the input before refusing the ID", id)
		}
	}
}

// TestEntryRejectsInvalidProblem: a problem that fails Validate is
// Validate's error from every runner, before any cluster or mesh exists
// and without a panic. A negative bandwidth used to reach
// core.NewCluster's panic through Run and fail on every machine of an
// already built mesh over TCP; k=1 panicked in
// core.NewCluster, k=0 in the partition builder, and the socket link
// blamed machine 0's ID. A negative checkpoint interval used to turn
// checkpointing off silently; so did a checkpoint directory without an
// interval, and a negative superstep timeout ran with no deadline.
func TestEntryRejectsInvalidProblem(t *testing.T) {
	entry, _ := Lookup("echo")
	at := node.Place{ID: 0, Listen: "127.0.0.1:0", Peers: []string{"127.0.0.1:1"}}
	runners := map[string]func(Problem) (*Outcome, error){
		"Run inmem":     func(p Problem) (*Outcome, error) { return entry.Run(p, transport.InMem) },
		"Run tcp":       func(p Problem) (*Outcome, error) { return entry.Run(p, transport.TCP) },
		"RunStandalone": func(p Problem) (*Outcome, error) { return entry.RunStandalone(p, at) },
	}
	for _, c := range []struct {
		prob Problem
		says string
	}{
		{Problem{N: 64, K: 5, Seed: 3, Bandwidth: -1}, "need bandwidth >= 1"},
		{Problem{N: 100, K: 1, Seed: 1}, "need k >= 2 machines"},
		{Problem{N: 100, K: 0, Seed: 1}, "need k >= 2 machines"},
		{Problem{N: 64, K: 5, Seed: 3, Checkpoint: CheckpointSpec{Every: -1}}, "need a checkpoint every"},
		{Problem{N: 64, K: 5, Seed: 3, Checkpoint: CheckpointSpec{Dir: "ckpts"}}, `checkpoint dir "ckpts" needs a checkpoint every`},
		{Problem{N: 64, K: 5, Seed: 3, SuperstepTimeout: -5 * time.Second}, "need a superstep timeout >= 0"},
	} {
		for name, run := range runners {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s k=%d bandwidth=%d panicked: %v", name, c.prob.K, c.prob.Bandwidth, p)
					}
				}()
				if _, err := run(c.prob); err == nil || !strings.Contains(err.Error(), c.says) {
					t.Errorf("%s k=%d bandwidth=%d: err = %v, want one saying %q", name, c.prob.K, c.prob.Bandwidth, err, c.says)
				}
			}()
		}
	}
}

// TestUnknownKindRejectedBeforeAnythingIsBuilt: a transport kind no link
// answers to is refused by the registry before the input is built, and
// by Run before any machine is — both used to run first and be refused
// only when the transport was opened.
func TestUnknownKindRejectedBeforeAnythingIsBuilt(t *testing.T) {
	entry, _ := Lookup("echo")
	a, built := echoDescriptor(), 0
	newMachine := a.NewMachine
	a.NewMachine = func(v partition.View) (Machine[echoMsg, int64], error) {
		built++
		return newMachine(v)
	}
	// "tcp/wire-v1" named the batch format wire v2 replaced; it is as
	// unknown as any other string now.
	for _, kind := range []transport.Kind{"carrier-pigeon", "tcp/wire-v1"} {
		builds := echoBuilds
		if _, err := entry.Run(Problem{N: 64, K: 5, Seed: 3}, kind); err == nil || !strings.Contains(err.Error(), "unknown transport kind") {
			t.Errorf("Entry.Run over %q: err = %v, want an unknown-kind error", kind, err)
		}
		if echoBuilds != builds {
			t.Errorf("Entry.Run over %q built the input before refusing the kind", kind)
		}
		in := EdgelessInput(Problem{N: 64, K: 5, Seed: 3})
		if _, _, err := Run(a, in, core.Config{K: 5, Bandwidth: 1, Transport: kind}); err == nil {
			t.Errorf("Run over %q succeeded", kind)
		}
	}
	if built != 0 {
		t.Errorf("%d machines were built before the unknown kind was refused", built)
	}
}

// TestInvalidConfigRefusedAlikeOnBothLinks: a Config no cluster can
// run fails with Validate's error before any machine is built, on
// either link. A negative Bandwidth used to panic in process and fail
// only over sockets, a negative SuperstepTimeout ran as "no deadline",
// and a negative MaxSupersteps failed at superstep 0 with
// ErrMaxSupersteps.
func TestInvalidConfigRefusedAlikeOnBothLinks(t *testing.T) {
	for _, bad := range []struct {
		name string
		cfg  core.Config
		says string
	}{
		{"negative Bandwidth", core.Config{K: 5, Bandwidth: -5}, "need Bandwidth >= 1 word/round, got -5"},
		{"negative SuperstepTimeout", core.Config{K: 5, Bandwidth: 1, SuperstepTimeout: -time.Second}, "need SuperstepTimeout >= 0, got -1s"},
		{"negative MaxSupersteps", core.Config{K: 5, Bandwidth: 1, MaxSupersteps: -1}, "need MaxSupersteps >= 0, got -1"},
	} {
		for _, kind := range []transport.Kind{transport.InMem, transport.TCP} {
			cfg := bad.cfg
			cfg.Transport = kind
			before := echoMachines.Load()
			_, _, err := Run(echoDescriptor(), EdgelessInput(Problem{N: 64, K: 5, Seed: 3}), cfg)
			if err == nil || !strings.Contains(err.Error(), bad.says) {
				t.Errorf("%s over %s: err = %v, want one saying %q", bad.name, kind, err, bad.says)
			}
			if built := echoMachines.Load() - before; built != 0 {
				t.Errorf("%s over %s: %d machines built, want 0", bad.name, kind, built)
			}
		}
	}
}

// TestCanceledRunBuildsNoMachine: a run whose Context is already
// canceled stops in setup, after Build and again after MachineViews,
// with an error wrapping context.Canceled and no machine built. It used
// to build the shards and all k machines (on every link) and fail only
// at superstep 0.
func TestCanceledRunBuildsNoMachine(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	entry, _ := Lookup("echo")
	prob := Problem{N: 64, K: 5, Seed: 3, Context: ctx}
	at := node.Place{ID: 0, Listen: "127.0.0.1:0", Peers: []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3", "127.0.0.1:4", "127.0.0.1:5"}}
	for name, run := range map[string]func() error{
		"Run inmem":     func() error { _, err := entry.Run(prob, transport.InMem); return err },
		"Run tcp":       func() error { _, err := entry.Run(prob, transport.TCP); return err },
		"RunStandalone": func() error { _, err := entry.RunStandalone(prob, at); return err },
		"algo.Run": func() error {
			_, _, err := Run(echoDescriptor(), EdgelessInput(prob), core.Config{K: prob.K, Bandwidth: 1, Context: ctx})
			return err
		},
	} {
		before := echoMachines.Load()
		if err := run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want one wrapping context.Canceled", name, err)
		}
		if built := echoMachines.Load() - before; built != 0 {
			t.Errorf("%s: %d machines built for a canceled run, want 0", name, built)
		}
	}
}

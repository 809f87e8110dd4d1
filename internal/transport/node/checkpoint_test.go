package node

// White-box tests for the socket link's checkpoint plane: the parts
// core's assembler hands to the sink after every node's continue
// ruling, and a resumed cluster whose nodes each open the latest cut
// themselves. The property under test is the same as
// everywhere in this repo: arming checkpoints changes nothing
// observable, and resuming from a sink reproduces the golden run bit
// for bit.

import (
	"runtime"
	"strings"
	"testing"

	"kmachine/internal/core"
	"kmachine/internal/testutil"
	"kmachine/internal/transport/wire"
)

// ckMachine is a deterministic ring machine whose state exercises all
// three restored quantities: the snapshot blob (sum), the RNG stream
// (each superstep's payload is a fresh draw), and the stored inbox
// (sums accumulate from delivered envelopes).
type ckMachine struct {
	self core.MachineID
	sum  int64
}

const ckLastStep = 9

func (m *ckMachine) Step(ctx *core.StepContext, inbox []core.Envelope[failMsg]) ([]core.Envelope[failMsg], bool) {
	for _, e := range inbox {
		m.sum += e.Msg.X
	}
	if ctx.Superstep >= ckLastStep {
		return nil, true
	}
	return []core.Envelope[failMsg]{{
		To:    core.MachineID((int(m.self) + 1) % ctx.K),
		Words: 1,
		Msg:   failMsg{X: int64(ctx.RNG.Uint64() % 1000)},
	}}, false
}

func (m *ckMachine) SnapshotState(dst []byte) ([]byte, error) {
	return wire.AppendVarint(dst, m.sum), nil
}

func (m *ckMachine) RestoreState(src []byte) error {
	c := &wire.Cursor{Src: src}
	m.sum = c.Varint()
	return c.Finish()
}

// runCkCluster executes the ring over RunLocal with the given
// checkpoint config, returning the Stats and every machine's final sum.
func runCkCluster(t *testing.T, k int, ck core.CheckpointPolicy) (*core.Stats, []int64) {
	t.Helper()
	stats, sums, err := tryCkCluster(k, ck)
	if err != nil {
		t.Fatal(err)
	}
	return stats, sums
}

func tryCkCluster(k int, ck core.CheckpointPolicy) (*core.Stats, []int64, error) {
	machines := make([]*ckMachine, k)
	cfg := core.Config{K: k, Bandwidth: 1, Seed: 77, Checkpoint: ck}
	stats, _, err := RunLocal(cfg, failCodec{}, func(id core.MachineID) core.Machine[failMsg] {
		machines[id] = &ckMachine{self: id}
		return machines[id]
	})
	if err != nil {
		return nil, nil, err
	}
	sums := make([]int64, k)
	for i, m := range machines {
		sums[i] = m.sum
	}
	return stats, sums, nil
}

func sameCkStats(t *testing.T, label string, got, want *core.Stats) {
	t.Helper()
	if got.Rounds != want.Rounds || got.Supersteps != want.Supersteps ||
		got.Messages != want.Messages || got.Words != want.Words ||
		got.MaxRecvWords != want.MaxRecvWords {
		t.Errorf("%s: stats diverge: got Rounds=%d Supersteps=%d Messages=%d Words=%d, want Rounds=%d Supersteps=%d Messages=%d Words=%d",
			label, got.Rounds, got.Supersteps, got.Messages, got.Words,
			want.Rounds, want.Supersteps, want.Messages, want.Words)
	}
}

// TestNodeCheckpointedRunMatchesGolden: arming the checkpoint plane on
// the node runtime must not perturb Stats or outputs, and the sink must
// end the run holding a complete (k parts + Stats) checkpoint of a
// pre-final superstep.
func TestNodeCheckpointedRunMatchesGolden(t *testing.T) {
	base := runtime.NumGoroutine()
	const k = 4
	goldenStats, goldenSums := runCkCluster(t, k, core.CheckpointPolicy{})
	sink := core.NewMemorySink()
	ckStats, ckSums := runCkCluster(t, k, core.CheckpointPolicy{Every: 2, Sink: sink})
	sameCkStats(t, "checkpointed-vs-golden", ckStats, goldenStats)
	for i := range goldenSums {
		if ckSums[i] != goldenSums[i] {
			t.Errorf("machine %d sum %d with checkpointing, %d without", i, ckSums[i], goldenSums[i])
		}
	}
	latest, blob, err := sink.Latest()
	if err != nil || blob == nil {
		t.Fatalf("no checkpoint in the sink after a checkpointed run (err %v)", err)
	}
	if latest >= goldenStats.Supersteps-1 {
		t.Errorf("latest checkpoint at superstep %d, want a pre-final superstep of a %d-superstep run",
			latest, goldenStats.Supersteps)
	}
	if _, step, parts, stats, err := core.DecodeCheckpoint(blob); err != nil || step != latest || len(parts) != k || len(stats) == 0 {
		t.Errorf("stored container: step %d, %d parts, %d stats bytes, err %v", step, len(parts), len(stats), err)
	}
	if want := goldenStats.Supersteps / 2; sink.Puts() != want {
		t.Errorf("sink took %d puts, want one per captured superstep = %d", sink.Puts(), want)
	}
	testutil.NoLeakedGoroutines(t, base)
}

// TestNodeResumeFromSinkDeterministic: fresh machines resumed from a
// prior run's sink replay only the post-checkpoint tail, and the total
// Stats and final outputs are bit-identical to the golden run — the
// node-runtime half of the scheduler's resume-from-checkpoint protocol.
// The file arm reopens the directory with a fresh FileSink, which is
// all a restarted process has.
func TestNodeResumeFromSinkDeterministic(t *testing.T) {
	const k = 4
	goldenStats, goldenSums := runCkCluster(t, k, core.CheckpointPolicy{})
	dir := t.TempDir()
	mem := core.NewMemorySink()
	for name, sinks := range map[string][2]core.CheckpointSink{
		"memory": {mem, mem},
		"file":   {core.NewFileSink(dir), core.NewFileSink(dir)},
	} {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			runCkCluster(t, k, core.CheckpointPolicy{Every: 2, Sink: sinks[0]})
			if step, _, _ := sinks[1].Latest(); step < 0 {
				t.Fatal("no checkpoint to resume from")
			}
			resumedStats, resumedSums := runCkCluster(t, k, core.CheckpointPolicy{Every: 2, Sink: sinks[1]})
			sameCkStats(t, "resumed-vs-golden", resumedStats, goldenStats)
			for i := range goldenSums {
				if resumedSums[i] != goldenSums[i] {
					t.Errorf("machine %d sum %d after resume, golden %d", i, resumedSums[i], goldenSums[i])
				}
			}
			testutil.NoLeakedGoroutines(t, base)
		})
	}
}

// TestResumeWithEmptySinkStartsFromZero: a sink with no checkpoint
// gives a normal from-zero run — the path a job takes when its machine
// died before the first capture.
func TestResumeWithEmptySinkStartsFromZero(t *testing.T) {
	const k = 4
	goldenStats, goldenSums := runCkCluster(t, k, core.CheckpointPolicy{})
	resumedStats, resumedSums := runCkCluster(t, k, core.CheckpointPolicy{Every: 2, Sink: core.NewMemorySink()})
	sameCkStats(t, "empty-resume-vs-golden", resumedStats, goldenStats)
	for i := range goldenSums {
		if resumedSums[i] != goldenSums[i] {
			t.Errorf("machine %d sum %d after empty-sink resume, golden %d", i, resumedSums[i], goldenSums[i])
		}
	}
}

// TestResumeRejectsOtherClusterSize: a checkpoint of the same run
// (here both Run 0) for a k=4 cluster, offered to a k=5 run, is an
// error that says so — never a silent from-zero run, and never a hang.
func TestResumeRejectsOtherClusterSize(t *testing.T) {
	base := runtime.NumGoroutine()
	sink := core.NewMemorySink()
	runCkCluster(t, 4, core.CheckpointPolicy{Every: 2, Sink: sink})
	_, _, err := tryCkCluster(5, core.CheckpointPolicy{Every: 2, Sink: sink})
	if err == nil || !strings.Contains(err.Error(), "checkpoint for k=4 cluster, running k=5") {
		t.Fatalf("k-mismatched resume returned %v, want the attributed k mismatch", err)
	}
	testutil.NoLeakedGoroutines(t, base)
}

// TestResumedRunIsDataFramesOnly counts the frames of a resumed run:
// the batch frames of the supersteps after the cut, and nothing
// else — the run opens the cut once, before any node starts, so no
// round agrees on it.
func TestResumedRunIsDataFramesOnly(t *testing.T) {
	const k = 4
	sink := core.NewMemorySink()
	runCkCluster(t, k, core.CheckpointPolicy{Every: 4, Sink: sink})
	latest, _, _ := sink.Latest()
	if latest < 0 {
		t.Fatal("no checkpoint to resume from")
	}
	cfg := core.Config{K: k, Bandwidth: 1, Seed: 77, Checkpoint: core.CheckpointPolicy{Every: 4, Sink: sink}}
	stats, w, err := RunLocal(cfg, failCodec{}, func(id core.MachineID) core.Machine[failMsg] { return &ckMachine{self: id} })
	if err != nil {
		t.Fatal(err)
	}
	// Supersteps latest+1 through the final silent one are exchanged.
	s := int64(stats.Supersteps - latest)
	if want := s * k * (k - 1); w.FramesSent != want || w.FramesRecv != want {
		t.Errorf("%d resumed supersteps sent %d and received %d frames, want %d", s, w.FramesSent, w.FramesRecv, want)
	}
}

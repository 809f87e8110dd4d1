package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"kmachine/internal/rng"
	"kmachine/internal/transport/wire"
)

// This file is the checkpoint half of recovery: a run that loses a
// machine is re-run from its latest cut (internal/algo's retry loop)
// and finishes with bit-identical output. It holds the one cut, the one
// container format, the one sink interface, the one capture path
// (Drive's hook into the Assembler) and the one restore path (DriveAll
// opening a Cut, Drive installing its part) of both links.
//
// The cut. Machine state is a pure function of (seed, inbox history),
// so right after superstep s is delivered and charged, the k parts ⟨RNG
// state, Snapshotter state, the inbox superstep s+1 consumes⟩ plus the
// Stats accounted through s are a complete, consistent image of the
// computation. Each driver encodes its own part, and the run's
// Assembler stores the container once all k have arrived, with the
// Stats of the last to arrive. A checkpointed run starts from the
// newest cut in its sink that carries its run digest
// (Assembler.LatestCut), opened once per run by DriveAll, which installs
// its Stats in every coordinator of the run; each driver installs its
// own part and enters the ordinary loop at s+1; from there the replay
// is the original run, bit for bit, because every machine draws the
// same random words and reads the same inboxes; with no such cut it
// starts from superstep 0. A
// stop ruling ends the run before a capture, so a final superstep is
// never captured, and a superstep whose exchange failed was never
// captured either: a resume replays at most Every supersteps.
//
// The container (all integers uvarint; len X is X length-prefixed):
//
//	checkpoint := 'K' 'M' 'C' 'K' ver=2  run  step+1  k  k × len part  len stats
//	part       := rngState  len state  batch
//	stats      := k  Rounds Supersteps Messages Words  k × RecvWords
//	              k × SentWords  n  n × (Rounds Messages Words
//	              MaxLinkWords MaxRecvWords MaxSentWords)
//
// run is the CheckpointPolicy.Run of the run that stored it. state is
// the Snapshotter blob. batch is the machine's next inbox as
// wire.AppendBatchV2 writes a received batch (superstep step+1, From
// runs seeded with 0) and runs to the end of the part.
// Stats.MaxRecvWords is derived and Stats.Recoveries is a count of
// retries, not part of the computation's cut; neither is stored.

// Snapshotter is the per-machine state codec capability. Machines that
// implement it (all five registry algorithms do, in their state.go
// files) can be checkpointed and restored mid-run.
//
// SnapshotState appends the machine's complete dynamic state to dst and
// returns the extended slice; static input (the partition view, graph
// shard, sort keys) is excluded — a restored machine is rebuilt by the
// same factory and already holds it. RestoreState overwrites every
// dynamic field from a blob SnapshotState produced, including clearing
// scratch state, so the machine's subsequent supersteps are
// bit-identical to the snapshotted original's. Implementations reuse
// the algorithm's wire codec types where state is message-shaped.
type Snapshotter interface {
	SnapshotState(dst []byte) ([]byte, error)
	RestoreState(src []byte) error
}

// checkpointable returns machine id's state codec, or why the machine
// cannot be checkpointed.
func checkpointable[M any](id int, m Machine[M], codec wire.Codec[M]) (Snapshotter, error) {
	snap, ok := m.(Snapshotter)
	if !ok {
		return nil, fmt.Errorf("core: machine %d (%T) does not implement core.Snapshotter; checkpointing needs a per-machine state codec", id, m)
	}
	if codec == nil {
		return nil, fmt.Errorf("core: checkpointing needs a message codec for state and envelope serialization")
	}
	return snap, nil
}

// DefaultMaxRecoveries bounds the retries of one run (internal/algo's
// recovery loop).
const DefaultMaxRecoveries = 3

// CheckpointPolicy is Config.Checkpoint: off by default (Every == 0),
// and the driver's checkpoint hook is a single nil check when off,
// preserving its zero-allocation steady state and every golden hash.
type CheckpointPolicy struct {
	// Every captures a checkpoint each s supersteps (at supersteps
	// Every-1, 2*Every-1, ...). 0 disables checkpointing.
	Every int
	// Sink stores the checkpoint blobs; nil means an in-memory ring of
	// the last two checkpoints (NewMemorySink).
	Sink CheckpointSink
	// Run names the computation: every container the run stores
	// carries it, and the run starts from the newest cut in Sink that
	// carries it, otherwise from superstep 0. The registry digests the
	// algorithm and its resolved Problem into it; every other run is 0.
	Run uint64
}

// CheckpointSink is pluggable checkpoint storage. Put stores the blob
// for one superstep (the sink must copy it — the encoder reuses its
// buffer); Latest returns the most recent stored checkpoint, or
// (-1, nil, nil) when the sink holds none. Puts are serialised by the
// Assembler, and a run calls Latest once, before its first superstep.
type CheckpointSink interface {
	Put(superstep int, blob []byte) error
	Latest() (superstep int, blob []byte, err error)
}

// MemorySink is an in-memory checkpoint ring holding the newest two
// checkpoints: the newest plus one fallback. It also counts every Put,
// so a test can check a run's cadence without touching a disk.
type MemorySink struct {
	mu      sync.Mutex
	entries []memCkpt
	puts    int
}

type memCkpt struct {
	step int
	blob []byte
}

// memSinkRetain is how many checkpoints a MemorySink keeps.
const memSinkRetain = 2

// NewMemorySink returns an empty ring.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Put implements CheckpointSink.
func (s *MemorySink) Put(superstep int, blob []byte) error {
	cp := append([]byte(nil), blob...)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = append(s.entries, memCkpt{step: superstep, blob: cp})
	if over := len(s.entries) - memSinkRetain; over > 0 {
		s.entries = slices.Delete(s.entries, 0, over)
	}
	s.puts++
	return nil
}

// Latest implements CheckpointSink.
func (s *MemorySink) Latest() (int, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) == 0 {
		return -1, nil, nil
	}
	e := s.entries[len(s.entries)-1]
	return e.step, e.blob, nil
}

// Puts returns how many checkpoints have been stored.
func (s *MemorySink) Puts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.puts
}

// FileSink stores checkpoints as files under a run directory, one file
// per checkpoint (ckpt-<superstep>.kmck), written atomically via a tmp
// file and rename, pruned to the newest two. The directory is created
// on first Put. Nothing is fsynced, so a checkpoint survives the
// process, not the host.
type FileSink struct{ dir string }

// NewFileSink returns a file-backed sink rooted at dir.
func NewFileSink(dir string) *FileSink {
	return &FileSink{dir: dir}
}

const ckptFilePrefix, ckptFileSuffix = "ckpt-", ".kmck"

func (s *FileSink) path(superstep int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%08d%s", ckptFilePrefix, superstep, ckptFileSuffix))
}

// Put implements CheckpointSink. A run's checkpoints are strictly
// increasing, so a file at a higher superstep belongs to an earlier run
// into the same directory: left in place it would outrank this run in
// Latest and be what retention keeps, so it is removed along with
// everything older than the newest two.
func (s *FileSink) Put(superstep int, blob []byte) error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("core: checkpoint dir: %w", err)
	}
	name := s.path(superstep)
	if err := os.WriteFile(name+".tmp", blob, 0o644); err != nil {
		return err
	}
	if err := os.Rename(name+".tmp", name); err != nil {
		return err
	}
	steps, err := s.list()
	if err != nil {
		return err
	}
	ours := sort.SearchInts(steps, superstep) + 1 // files at or below superstep
	for i, step := range steps {
		if step > superstep || i < ours-2 {
			if err := os.Remove(s.path(step)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Latest implements CheckpointSink. A file that fails the container's
// structural check, or names another superstep than its file name — a
// torn or truncated write — is skipped in favour of the next-newest, so
// it cannot poison recovery.
func (s *FileSink) Latest() (int, []byte, error) {
	steps, err := s.list()
	if err != nil {
		return -1, nil, err
	}
	for i := len(steps) - 1; i >= 0; i-- {
		blob, err := os.ReadFile(s.path(steps[i]))
		if err != nil {
			return -1, nil, err
		}
		if _, got, _, _, err := DecodeCheckpoint(blob); err == nil && got == steps[i] {
			return steps[i], blob, nil
		}
	}
	return -1, nil, nil
}

// list returns the stored superstep numbers in ascending order.
func (s *FileSink) list() ([]int, error) {
	ents, err := os.ReadDir(s.dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var steps []int
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, ckptFilePrefix) || !strings.HasSuffix(name, ckptFileSuffix) {
			continue
		}
		v, err := strconv.Atoi(name[len(ckptFilePrefix) : len(name)-len(ckptFileSuffix)])
		if err != nil {
			continue
		}
		steps = append(steps, v)
	}
	sort.Ints(steps)
	return steps, nil
}

var ckptMagic = []byte{'K', 'M', 'C', 'K', 2}

// AppendCheckpoint appends the container of run's cut after superstep
// step: the k machine parts in machine order, then the Stats part.
func AppendCheckpoint(dst []byte, run uint64, step int, parts [][]byte, stats []byte) []byte {
	dst = append(dst, ckptMagic...)
	dst = wire.AppendUvarint(dst, run)
	dst = wire.AppendUvarint(dst, uint64(step+1))
	dst = wire.AppendUvarint(dst, uint64(len(parts)))
	for _, part := range parts {
		dst = wire.AppendUvarint(dst, uint64(len(part)))
		dst = append(dst, part...)
	}
	dst = wire.AppendUvarint(dst, uint64(len(stats)))
	return append(dst, stats...)
}

// DecodeCheckpoint is the container's structural check and splitter:
// the returned parts and stats alias blob. What is inside a part is
// RestoreCheckpointPart's business, what is inside stats DecodeStats's.
func DecodeCheckpoint(blob []byte) (run uint64, step int, parts [][]byte, stats []byte, err error) {
	if !bytes.HasPrefix(blob, ckptMagic) {
		return 0, 0, nil, nil, fmt.Errorf("core: bad checkpoint header")
	}
	c := wire.Cursor{Src: blob, Off: len(ckptMagic)}
	run = c.Uvarint()
	step = int(c.Uvarint()) - 1
	k := c.Uvarint() // 0 once the cursor has failed
	if k > uint64(len(blob)-c.Off) {
		// Every part costs at least its length byte.
		return 0, 0, nil, nil, fmt.Errorf("core: checkpoint claims %d parts in %d bytes", k, len(blob)-c.Off)
	}
	parts = make([][]byte, k)
	for i := range parts {
		parts[i] = c.LenPrefixed()
	}
	stats = c.LenPrefixed()
	if err := c.Finish(); err != nil {
		return 0, 0, nil, nil, fmt.Errorf("core: corrupt checkpoint: %w", err)
	}
	return run, step, parts, stats, nil
}

// Cut is an opened checkpoint: what the k drivers of a resuming run
// install before entering the loop at Step+1.
type Cut struct {
	Step  int
	Parts [][]byte
	Stats []byte
}

// AppendCheckpointPart appends machine id's part of the cut after
// superstep step; inbox is what the machine consumes in step+1.
func AppendCheckpointPart[M any](dst []byte, step int, id MachineID, r *rng.RNG, snap Snapshotter, inbox []Envelope[M], codec wire.Codec[M]) ([]byte, error) {
	dst = wire.AppendUvarint(dst, r.State())
	mark := len(dst)
	dst, err := snap.SnapshotState(dst)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot machine %d: %w", id, err)
	}
	dst = wire.PrefixLen(dst, mark)
	if dst, err = wire.AppendBatchV2(dst, step+1, 0, id, inbox, codec); err != nil {
		return nil, fmt.Errorf("core: checkpoint inbox of machine %d: %w", id, err)
	}
	return dst, nil
}

// RestoreCheckpointPart installs machine id's part of the cut after
// superstep step into snap and r and returns the inbox superstep step+1
// consumes. Nothing is installed unless the whole part decodes.
func RestoreCheckpointPart[M any](part []byte, step int, id MachineID, r *rng.RNG, snap Snapshotter, codec wire.Codec[M]) ([]Envelope[M], error) {
	c := wire.Cursor{Src: part}
	rngState := c.Uvarint()
	state := c.LenPrefixed()
	if c.Err != nil {
		return nil, fmt.Errorf("core: corrupt checkpoint part of machine %d: %w", id, c.Err)
	}
	got, _, inbox, err := wire.DecodeBatchAnyInto(part[c.Off:], codec, 0, id, nil)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint inbox of machine %d: %w", id, err)
	}
	if got != step+1 {
		return nil, fmt.Errorf("core: checkpoint part of machine %d holds the inbox of superstep %d, want %d", id, got, step+1)
	}
	if err := snap.RestoreState(state); err != nil {
		return nil, fmt.Errorf("core: restore machine %d: %w", id, err)
	}
	r.SetState(rngState)
	return inbox, nil
}

// AppendStats appends s in the stats layout.
func AppendStats(dst []byte, s *Stats) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(s.RecvWords)))
	dst = wire.AppendUvarint(dst, uint64(s.Rounds))
	dst = wire.AppendUvarint(dst, uint64(s.Supersteps))
	dst = wire.AppendUvarint(dst, uint64(s.Messages))
	dst = wire.AppendUvarint(dst, uint64(s.Words))
	for _, w := range s.RecvWords {
		dst = wire.AppendUvarint(dst, uint64(w))
	}
	for _, w := range s.SentWords {
		dst = wire.AppendUvarint(dst, uint64(w))
	}
	dst = wire.AppendUvarint(dst, uint64(len(s.PerSuperstep)))
	for i := range s.PerSuperstep {
		ss := &s.PerSuperstep[i]
		dst = wire.AppendUvarint(dst, uint64(ss.Rounds))
		dst = wire.AppendUvarint(dst, uint64(ss.Messages))
		dst = wire.AppendUvarint(dst, uint64(ss.Words))
		dst = wire.AppendUvarint(dst, uint64(ss.MaxLinkWords))
		dst = wire.AppendUvarint(dst, uint64(ss.MaxRecvWords))
		dst = wire.AppendUvarint(dst, uint64(ss.MaxSentWords))
	}
	return dst
}

// DecodeStats decodes a stats layout that must span src exactly, for a
// cluster of k machines. MaxRecvWords is recomputed from the
// per-machine totals.
func DecodeStats(src []byte, k int) (*Stats, error) {
	c := wire.Cursor{Src: src}
	if got := c.Uvarint(); c.Err == nil && got != uint64(k) {
		return nil, fmt.Errorf("core: stats of a k=%d cluster, running k=%d", got, k)
	}
	s := newStats(k)
	s.Rounds = int64(c.Uvarint())
	s.Supersteps = int(c.Uvarint())
	s.Messages = int64(c.Uvarint())
	s.Words = int64(c.Uvarint())
	for i := range s.RecvWords {
		s.RecvWords[i] = int64(c.Uvarint())
	}
	for i := range s.SentWords {
		s.SentWords[i] = int64(c.Uvarint())
	}
	n := c.Uvarint() // 0 once the cursor has failed
	if n > uint64(len(src)-c.Off)/6 {
		return nil, fmt.Errorf("core: stats claim %d supersteps in %d bytes", n, len(src)-c.Off)
	}
	if n > 0 {
		s.PerSuperstep = make([]SuperstepStat, n)
	}
	for i := range s.PerSuperstep {
		s.PerSuperstep[i] = SuperstepStat{
			Rounds:       int64(c.Uvarint()),
			Messages:     int64(c.Uvarint()),
			Words:        int64(c.Uvarint()),
			MaxLinkWords: int64(c.Uvarint()),
			MaxRecvWords: int64(c.Uvarint()),
			MaxSentWords: int64(c.Uvarint()),
		}
	}
	if err := c.Finish(); err != nil {
		return nil, fmt.Errorf("core: corrupt stats: %w", err)
	}
	s.finalize()
	return s, nil
}

// Assembler joins the k parts and the Stats part of the one superstep
// being captured and stores the container — every driver hands over its
// part of s before any can finish s+1, so there is never a second — and
// opens the cut a run starts from. It is shared memory: DriveAll builds
// one per run of the clusters whose k drivers live in one process
// (RunOn, node.RunLocal, the job service); a multi-process run refuses
// checkpointing (node.Run).
type Assembler struct {
	every int
	sink  CheckpointSink
	run   uint64

	mu    sync.Mutex
	step  int // superstep being captured
	have  int
	parts [][]byte
	stats []byte
	buf   []byte // container scratch, reused across captures
}

// NewAssembler returns the checkpoint plane of one k-machine run under
// p — capturing every p.Every-th superstep into p.Sink (nil means a
// private in-memory ring) — or nil when p.Every <= 0: checkpointing is
// off.
func NewAssembler(p CheckpointPolicy, k int) *Assembler {
	if p.Every <= 0 {
		return nil
	}
	sink := p.Sink
	if sink == nil {
		sink = NewMemorySink()
	}
	return &Assembler{every: p.Every, sink: sink, run: p.Run, step: -1, parts: make([][]byte, k)}
}

// LatestCut opens the cut the run starts from: the sink's latest
// checkpoint when it carries this run's digest, or nil — start from
// superstep 0 — when the sink holds none or another run's. A cut of
// this run for another cluster size is an error, never a silent
// from-zero.
func (a *Assembler) LatestCut() (*Cut, error) {
	step, blob, err := a.sink.Latest()
	if err != nil || blob == nil {
		return nil, err
	}
	run, got, parts, stats, err := DecodeCheckpoint(blob)
	switch {
	case err != nil:
		return nil, err
	case run != a.run:
		return nil, nil
	case got != step:
		return nil, fmt.Errorf("core: checkpoint blob names superstep %d, sink says %d", got, step)
	case len(parts) != len(a.parts):
		return nil, fmt.Errorf("core: checkpoint for k=%d cluster, running k=%d", len(parts), len(a.parts))
	}
	return &Cut{Step: step, Parts: parts, Stats: stats}, nil
}

// put copies in machine id's part of the cut after superstep step and,
// once all k have arrived, stores the container with the Stats of the
// driver that completed it — every coordinator of the run has charged
// the same rows, and none charges s+1 before that driver's Round. The
// sink write runs under the lock: the last driver to arrive is the only
// one here.
func (a *Assembler) put(step, id int, part []byte, stats *Stats) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if step != a.step {
		a.step, a.have = step, 0
	}
	a.parts[id] = append(a.parts[id][:0], part...)
	if a.have++; a.have < len(a.parts) {
		return nil
	}
	a.stats = AppendStats(a.stats[:0], stats)
	a.buf = AppendCheckpoint(a.buf[:0], a.run, step, a.parts, a.stats)
	return a.sink.Put(step, a.buf)
}

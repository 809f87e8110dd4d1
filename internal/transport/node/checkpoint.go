package node

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"kmachine/internal/core"
	"kmachine/internal/rng"
	"kmachine/internal/transport/tcp"
	"kmachine/internal/transport/wire"
)

// This file is the node runtime's checkpoint/recovery layer, the
// distributed mirror of core's coordinated-rollback design
// (core/checkpoint.go): every cfg.Checkpoint.Every supersteps each node
// captures a per-machine part — its RNG stream position, its machine
// state (via core.Snapshotter), and the inbox it is about to consume —
// into a shared CheckpointStore, and the coordinator additionally
// captures its accumulated Stats. A checkpoint is complete when all k
// parts plus the coordinator blob are present for one superstep.
//
// Recovery is a re-run: the job scheduler rebuilds the poisoned mesh,
// rebuilds the machines from the deterministic inputs, and re-enters
// with Checkpoint.Resume set. The coordinator picks the latest complete
// checkpoint and broadcasts the resume superstep in a pre-loop control
// round; every node restores its part and the loop continues at the
// following superstep, bit-identical to an unkilled run. With no
// complete checkpoint in the store the broadcast says "from zero" and
// the freshly built machines simply run from the start.
//
// The capture point — after the continue verdict, before the next
// compute — means the checkpointed Stats already include the captured
// superstep, so resume re-accounts nothing.
//
// The store is in-process shared memory: it serves RunLocal and the
// resident job service, where all k node loops live in one process.
// Multi-process standalone runs only ever fill one machine's parts and
// therefore never observe a complete checkpoint.

// CheckpointConfig is the checkpoint policy of a node run
// (Config.Checkpoint). The zero value disables checkpointing.
type CheckpointConfig struct {
	// Every captures a checkpoint after every Every-th superstep's
	// continue verdict; 0 disables. Requires the machine to implement
	// core.Snapshotter.
	Every int
	// Store receives the parts. RunLocal/RunJobLocal create a private
	// one when nil; standalone Run requires it.
	Store *CheckpointStore
	// Resume restores the latest complete checkpoint before the first
	// superstep: the coordinator broadcasts the resume superstep and
	// every node installs its part. With an empty store the run starts
	// from superstep 0.
	Resume bool
	// Dir, when non-empty, mirrors every complete checkpoint to a
	// ckpt-%08d.kmnc file in that directory (tmp+rename, last two
	// retained) — a durable restart point a fresh store can reload
	// with LoadFrom after the process itself dies.
	Dir string
}

// CheckpointStore holds the per-machine checkpoint parts of one job's
// run, keyed by superstep. It is safe for concurrent use by the k node
// loops of an in-process cluster and retains the last two complete
// checkpoints (a capture in progress must not invalidate the only
// restorable one).
type CheckpointStore struct {
	mu    sync.Mutex
	k     int
	steps map[int]*ckSlot
	puts  int
	bytes int64
	dir   string
}

type ckSlot struct {
	parts [][]byte
	stats []byte
	have  int
}

// NewCheckpointStore builds an empty store for a k-machine cluster.
func NewCheckpointStore(k int) *CheckpointStore {
	return &CheckpointStore{k: k, steps: map[int]*ckSlot{}}
}

// PutPart stores machine id's part for one superstep, copying the blob.
func (s *CheckpointStore) PutPart(step, id int, part []byte) error {
	if id < 0 || id >= s.k {
		return fmt.Errorf("node: checkpoint part from machine %d of %d", id, s.k)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	slot := s.slot(step)
	if slot.parts[id] == nil {
		slot.have++
	}
	slot.parts[id] = append([]byte(nil), part...)
	s.puts++
	s.bytes += int64(len(part))
	s.pruneLocked()
	return s.persistLocked(step)
}

// PutStats stores the coordinator's accumulated-Stats blob for one
// superstep, copying it.
func (s *CheckpointStore) PutStats(step int, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slot(step).stats = append([]byte(nil), blob...)
	s.bytes += int64(len(blob))
	s.pruneLocked()
	return s.persistLocked(step)
}

// Part returns machine id's part for the superstep, if present.
func (s *CheckpointStore) Part(step, id int) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, ok := s.steps[step]
	if !ok || id < 0 || id >= s.k || slot.parts[id] == nil {
		return nil, false
	}
	return slot.parts[id], true
}

// StatsBlob returns the coordinator blob for the superstep, if present.
func (s *CheckpointStore) StatsBlob(step int) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, ok := s.steps[step]
	if !ok || slot.stats == nil {
		return nil, false
	}
	return slot.stats, true
}

// LatestComplete returns the highest superstep with all k parts and the
// coordinator blob present, or -1 when none is complete.
func (s *CheckpointStore) LatestComplete() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latestLocked()
}

// Puts and Bytes report how many parts were stored and the total bytes
// accepted (parts plus stats blobs, before pruning) — the E25
// experiment's overhead counters.
func (s *CheckpointStore) Puts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.puts
}

func (s *CheckpointStore) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

func (s *CheckpointStore) slot(step int) *ckSlot {
	slot, ok := s.steps[step]
	if !ok {
		slot = &ckSlot{parts: make([][]byte, s.k)}
		s.steps[step] = slot
	}
	return slot
}

func (s *CheckpointStore) latestLocked() int {
	latest := -1
	for step, slot := range s.steps {
		if slot.have == s.k && slot.stats != nil && step > latest {
			latest = step
		}
	}
	return latest
}

// pruneLocked drops everything older than the second-latest complete
// checkpoint: the latest is the restore target, the previous one the
// fallback while a new capture is still filling in.
func (s *CheckpointStore) pruneLocked() {
	latest := s.latestLocked()
	if latest < 0 {
		return
	}
	prev := -1
	for step, slot := range s.steps {
		if step < latest && slot.have == s.k && slot.stats != nil && step > prev {
			prev = step
		}
	}
	floor := latest
	if prev >= 0 {
		floor = prev
	}
	for step := range s.steps {
		if step < floor {
			delete(s.steps, step)
		}
	}
}

// PersistTo mirrors every complete checkpoint to dir from now on:
// whenever a superstep's slot fills (all k parts plus the coordinator
// blob), the whole cut is written to ckpt-%08d.kmnc via tmp+rename,
// and only the two newest files are retained — the same retention the
// in-memory slots use. The files give a run a durable restart point:
// after the process dies, LoadFrom rebuilds a store a Resume run can
// pick up from.
func (s *CheckpointStore) PersistTo(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("node: checkpoint dir: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dir = dir
	return nil
}

// Complete-checkpoint file format ("KMNC" v1): the k parts and the
// coordinator's Stats blob of one superstep, length-prefixed.
//
//	magic 'K','M','N','C', version 1
//	uvarint superstep+1
//	uvarint k
//	k × (uvarint len ++ KMNP part)
//	uvarint len(stats) ++ gob Stats blob
var ckFileMagic = []byte{'K', 'M', 'N', 'C', 1}

// persistLocked writes the step's slot to the persist directory if one
// is configured and the slot is complete; otherwise it is a no-op.
func (s *CheckpointStore) persistLocked(step int) error {
	slot, ok := s.steps[step]
	if s.dir == "" || !ok || slot.have != s.k || slot.stats == nil {
		return nil
	}
	buf := append([]byte(nil), ckFileMagic...)
	buf = wire.AppendUvarint(buf, uint64(step+1))
	buf = wire.AppendUvarint(buf, uint64(s.k))
	for _, part := range slot.parts {
		buf = wire.AppendUvarint(buf, uint64(len(part)))
		buf = append(buf, part...)
	}
	buf = wire.AppendUvarint(buf, uint64(len(slot.stats)))
	buf = append(buf, slot.stats...)
	name := filepath.Join(s.dir, fmt.Sprintf("ckpt-%08d.kmnc", step))
	tmp := name + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("node: persist checkpoint: %w", err)
	}
	if err := os.Rename(tmp, name); err != nil {
		return fmt.Errorf("node: persist checkpoint: %w", err)
	}
	return s.pruneFilesLocked()
}

// pruneFilesLocked mirrors the in-memory retention on disk: everything
// but the two newest checkpoint files is removed. The %08d zero
// padding makes lexical order superstep order.
func (s *CheckpointStore) pruneFilesLocked() error {
	files, err := filepath.Glob(filepath.Join(s.dir, "ckpt-*.kmnc"))
	if err != nil {
		return err
	}
	sort.Strings(files)
	for _, f := range files[:max(0, len(files)-2)] {
		if err := os.Remove(f); err != nil {
			return fmt.Errorf("node: prune checkpoint files: %w", err)
		}
	}
	return nil
}

// LoadFrom installs the newest valid persisted checkpoint from dir
// into the store, returning its superstep (-1 when the directory holds
// no loadable checkpoint — not an error, mirroring an empty store's
// from-zero resume). Files whose k disagrees with the store, or that
// fail to parse (a torn write survives only as the ignored .tmp), are
// skipped in favor of the next-newest.
func (s *CheckpointStore) LoadFrom(dir string) (int, error) {
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.kmnc"))
	if err != nil {
		return -1, err
	}
	sort.Sort(sort.Reverse(sort.StringSlice(files)))
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		step, parts, stats, err := decodeCheckpointFile(buf, s.k)
		if err != nil {
			continue
		}
		for id, part := range parts {
			if err := s.PutPart(step, id, part); err != nil {
				return -1, err
			}
		}
		if err := s.PutStats(step, stats); err != nil {
			return -1, err
		}
		return step, nil
	}
	return -1, nil
}

func decodeCheckpointFile(buf []byte, wantK int) (step int, parts [][]byte, stats []byte, err error) {
	if len(buf) < len(ckFileMagic) || !bytes.Equal(buf[:len(ckFileMagic)], ckFileMagic) {
		return 0, nil, nil, fmt.Errorf("node: bad checkpoint file header")
	}
	c := wire.Cursor{Src: buf, Off: len(ckFileMagic)}
	step = int(c.Uvarint()) - 1
	k := int(c.Uvarint())
	if c.Err != nil {
		return 0, nil, nil, c.Err
	}
	if k != wantK {
		return 0, nil, nil, fmt.Errorf("node: checkpoint file for k=%d, want k=%d", k, wantK)
	}
	take := func() []byte {
		n := int(c.Uvarint())
		if c.Err != nil || n < 0 || c.Off+n > len(buf) {
			if c.Err == nil {
				c.Err = fmt.Errorf("node: checkpoint file blob overruns %d bytes", len(buf))
			}
			return nil
		}
		b := buf[c.Off : c.Off+n]
		c.Off += n
		return b
	}
	parts = make([][]byte, k)
	for id := range parts {
		parts[id] = take()
	}
	stats = take()
	if err := c.Finish(); err != nil {
		return 0, nil, nil, fmt.Errorf("node: corrupt checkpoint file: %w", err)
	}
	return step, parts, stats, nil
}

// Per-machine part format ("KMNP" v1):
//
//	magic 'K','M','N','P', version 1
//	uvarint superstep+1
//	uvarint rng stream state
//	uvarint len(state) ++ state     (core.Snapshotter blob)
//	uvarint len(inbox) ++ envelopes (uvarint From, To, Words, codec payload)
var ckPartMagic = []byte{'K', 'M', 'N', 'P', 1}

func encodePart[M any](dst []byte, step int, rngState uint64, snap core.Snapshotter, inbox []core.Envelope[M], codec wire.Codec[M]) ([]byte, error) {
	dst = append(dst, ckPartMagic...)
	dst = wire.AppendUvarint(dst, uint64(step+1))
	dst = wire.AppendUvarint(dst, rngState)
	state, err := snap.SnapshotState(nil)
	if err != nil {
		return nil, fmt.Errorf("node: snapshot state: %w", err)
	}
	dst = wire.AppendUvarint(dst, uint64(len(state)))
	dst = append(dst, state...)
	dst = wire.AppendUvarint(dst, uint64(len(inbox)))
	for i := range inbox {
		e := &inbox[i]
		dst = wire.AppendUvarint(dst, uint64(e.From))
		dst = wire.AppendUvarint(dst, uint64(e.To))
		dst = wire.AppendUvarint(dst, uint64(e.Words))
		dst, err = codec.Append(dst, e.Msg)
		if err != nil {
			return nil, fmt.Errorf("node: encode checkpointed envelope: %w", err)
		}
	}
	return dst, nil
}

// decodePart restores machine state and RNG position from a part and
// returns the inbox the resumed superstep consumes.
func decodePart[M any](part []byte, wantStep int, snap core.Snapshotter, r *rng.RNG, codec wire.Codec[M]) ([]core.Envelope[M], error) {
	if len(part) < len(ckPartMagic) || !bytes.Equal(part[:len(ckPartMagic)], ckPartMagic) {
		return nil, fmt.Errorf("node: bad checkpoint part header")
	}
	c := wire.Cursor{Src: part, Off: len(ckPartMagic)}
	step := int(c.Uvarint()) - 1
	rngState := c.Uvarint()
	stateLen := int(c.Uvarint())
	if c.Err == nil && (stateLen < 0 || c.Off+stateLen > len(part)) {
		return nil, fmt.Errorf("node: checkpoint part claims %d state bytes in %d", stateLen, len(part)-c.Off)
	}
	if c.Err != nil {
		return nil, c.Err
	}
	state := part[c.Off : c.Off+stateLen]
	c.Off += stateLen
	nIn := int(c.Uvarint())
	inbox := make([]core.Envelope[M], 0, nIn)
	for i := 0; i < nIn && c.Err == nil; i++ {
		from := c.Uvarint()
		to := c.Uvarint()
		words := c.Uvarint()
		if c.Err != nil {
			break
		}
		m, n, err := codec.Decode(part[c.Off:])
		if err != nil {
			return nil, fmt.Errorf("node: decode checkpointed envelope: %w", err)
		}
		c.Off += n
		inbox = append(inbox, core.Envelope[M]{
			From: core.MachineID(from), To: core.MachineID(to),
			Words: int32(words), Msg: m,
		})
	}
	if err := c.Finish(); err != nil {
		return nil, fmt.Errorf("node: corrupt checkpoint part: %w", err)
	}
	if step != wantStep {
		return nil, fmt.Errorf("node: checkpoint part for superstep %d, want %d", step, wantStep)
	}
	if err := snap.RestoreState(state); err != nil {
		return nil, fmt.Errorf("node: restore state: %w", err)
	}
	r.SetState(rngState)
	return inbox, nil
}

// ctrlResume is the pre-loop control frame of a resuming run: the
// coordinator broadcasts the superstep of the checkpoint every node
// must restore (encoded as step+1, so 0 means "no checkpoint, run from
// the start"). Same value family as the job-lifecycle frames — far from
// the verdict kinds so a misread fails loudly.
const ctrlResume = byte(0xB2)

func encodeResume(step int) []byte {
	return wire.AppendUvarint([]byte{ctrlResume}, uint64(step+1))
}

func decodeResume(buf []byte) (int, error) {
	if len(buf) < 1 || buf[0] != ctrlResume {
		got := byte(0xFF)
		if len(buf) > 0 {
			got = buf[0]
		}
		return 0, fmt.Errorf("node: expected resume control frame 0x%02x, got 0x%02x", ctrlResume, got)
	}
	v, _, err := wire.Uvarint(buf[1:])
	if err != nil {
		return 0, fmt.Errorf("node: corrupt resume control frame: %w", err)
	}
	return int(v) - 1, nil
}

// encodeStatsBlob serialises the coordinator's accumulated Stats the
// same way the stop verdict ships final Stats.
func encodeStatsBlob(stats *core.Stats) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(stats); err != nil {
		return nil, fmt.Errorf("node: encode checkpoint stats: %w", err)
	}
	return buf.Bytes(), nil
}

// restoreStats replaces the coordinator's accumulated Stats with a
// checkpointed blob. MaxRecvWords resets to zero — it is derived by
// finalize() at the end of the run, mirroring core.
func (c *coordinator) restoreStats(blob []byte) error {
	st := &core.Stats{}
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(st); err != nil {
		return fmt.Errorf("node: decode checkpoint stats: %w", err)
	}
	if len(st.RecvWords) != c.k || len(st.SentWords) != c.k {
		return fmt.Errorf("node: checkpoint stats for k=%d, want k=%d", len(st.RecvWords), c.k)
	}
	st.MaxRecvWords = 0
	c.stats = st
	return nil
}

// captureNode stores one node's part — and, on the coordinator, the
// accumulated-Stats blob — for the just-accounted superstep.
func captureNode[M any](cfg Config, store *CheckpointStore, step int, r *rng.RNG, snap core.Snapshotter, inbox []core.Envelope[M], codec wire.Codec[M], coord *coordinator) error {
	part, err := encodePart(nil, step, r.State(), snap, inbox, codec)
	if err != nil {
		return err
	}
	if err := store.PutPart(step, cfg.ID, part); err != nil {
		return err
	}
	if coord != nil {
		blob, err := encodeStatsBlob(coord.stats)
		if err != nil {
			return err
		}
		if err := store.PutStats(step, blob); err != nil {
			return err
		}
	}
	return nil
}

// resumeRound is the pre-loop control round of a resuming run: the
// coordinator picks the latest complete checkpoint from the store and
// broadcasts its superstep; every other node waits for the frame. It
// returns the superstep to restore, or -1 to run from the start.
func resumeRound[M any](cfg Config, ep *tcp.Endpoint[M], runCtx context.Context, store *CheckpointStore) (int, error) {
	hctx, cancel := handshakeCtx(runCtx, cfg)
	defer cancel()
	if cfg.ID == 0 {
		step := store.LatestComplete()
		if err := ep.Broadcast(hctx, encodeResume(step)); err != nil {
			return 0, fmt.Errorf("node: coordinator resume broadcast: %w", err)
		}
		return step, nil
	}
	frame, err := ep.ReceiveVerdict(hctx)
	if err != nil {
		return 0, fmt.Errorf("node: machine %d resume wait: %w", cfg.ID, err)
	}
	step, err := decodeResume(frame)
	if err != nil {
		return 0, fmt.Errorf("node: machine %d resume: %w", cfg.ID, err)
	}
	return step, nil
}

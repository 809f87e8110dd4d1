package core

// White-box tests for the pluggable checkpoint sinks: both must hand
// back exactly what the newest Put stored, retain only the configured
// window, and never leave torn state behind — Latest() is what recovery
// restores from, so a stale or half-written blob there is silent data
// corruption downstream.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"kmachine/internal/transport/wire"
)

// cut is a structurally valid one-part container carrying a label, which
// is all a sink may look at.
func cut(step int) []byte {
	return AppendCheckpoint(nil, 0, step, [][]byte{[]byte(fmt.Sprintf("cut-at-%d", step))}, nil)
}

func checkSink(t *testing.T, s CheckpointSink) {
	t.Helper()
	if step, blob, err := s.Latest(); step != -1 || blob != nil || err != nil {
		t.Fatalf("empty sink Latest() = (%d, %v, %v), want (-1, nil, nil)", step, blob, err)
	}
	for step := 4; step <= 24; step += 5 {
		blob := cut(step)
		if err := s.Put(step, blob); err != nil {
			t.Fatalf("Put(%d): %v", step, err)
		}
		// The caller's buffer is reused by the encoder; the sink must
		// have copied before we clobber it.
		for i := range blob {
			blob[i] = 0xFF
		}
		gotStep, got, err := s.Latest()
		if err != nil {
			t.Fatalf("Latest after Put(%d): %v", step, err)
		}
		if gotStep != step || !bytes.Equal(got, cut(step)) {
			t.Fatalf("Latest = (%d, %q) after Put(%d)", gotStep, got, step)
		}
	}
}

func TestMemorySinkRetainsNewest(t *testing.T) {
	s := NewMemorySink()
	checkSink(t, s)
	if s.Puts() != 5 {
		t.Errorf("Puts() = %d after 5 puts", s.Puts())
	}
	if n := len(s.entries); n != 2 {
		t.Errorf("ring holds %d checkpoints, want 2", n)
	}
}

func TestFileSinkRetainsNewestAtomically(t *testing.T) {
	dir := t.TempDir()
	s := NewFileSink(dir)
	checkSink(t, s)
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.kmck"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Errorf("dir holds %d checkpoint files %v, want 2", len(files), files)
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmp) != 0 {
		t.Errorf("torn temp files left behind: %v", tmp)
	}
	// A second sink over the same directory — a restarted process —
	// sees the same newest checkpoint.
	if step, blob, err := NewFileSink(dir).Latest(); err != nil || step != 24 || !bytes.Equal(blob, cut(24)) {
		t.Errorf("reopened sink Latest() = (%d, %q, %v), want the cut at 24", step, blob, err)
	}
}

func TestFileSinkLatestIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	s := NewFileSink(dir)
	if err := s.Put(7, cut(7)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"notes.txt", "ckpt-junk.kmck", "ckpt-00000099.kmck.tmp", "ckpt-00000098.kmcp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if step, blob, err := s.Latest(); err != nil || step != 7 || !bytes.Equal(blob, cut(7)) {
		t.Errorf("Latest() = (%d, %q, %v) amid foreign files, want the cut at 7", step, blob, err)
	}
}

// TestFileSinkReusedDirectoryBelongsToTheNewRun: a second run into a
// directory an earlier, longer run left checkpoints in must end up
// holding — and recovering from — its own, not have every Put pruned
// away beneath the old run's higher superstep numbers.
func TestFileSinkReusedDirectoryBelongsToTheNewRun(t *testing.T) {
	dir := t.TempDir()
	old := NewFileSink(dir)
	for _, step := range []int{474, 479} {
		if err := old.Put(step, cut(step)); err != nil {
			t.Fatal(err)
		}
	}
	s := NewFileSink(dir)
	for step := 0; step <= 3; step++ {
		if err := s.Put(step, cut(step)); err != nil {
			t.Fatal(err)
		}
		if got, blob, err := s.Latest(); err != nil || got != step || !bytes.Equal(blob, cut(step)) {
			t.Fatalf("after Put(%d) into a reused directory Latest() = (%d, %q, %v)", step, got, blob, err)
		}
	}
	if steps, err := s.list(); err != nil || len(steps) != 2 || steps[0] != 2 || steps[1] != 3 {
		t.Errorf("directory holds supersteps %v (err %v), want the new run's [2 3]", steps, err)
	}
}

// TestFileSinkLatestSkipsDamagedNewest: a truncated newest file, or one
// whose container names another superstep than its file name, must not
// poison recovery — Latest falls back to the next-newest intact one, and
// to "none" when nothing intact is left.
func TestFileSinkLatestSkipsDamagedNewest(t *testing.T) {
	dir := t.TempDir()
	s := NewFileSink(dir)
	for _, step := range []int{3, 5} {
		if err := s.Put(step, cut(step)); err != nil {
			t.Fatal(err)
		}
	}
	for name, damaged := range map[string][]byte{"truncated": cut(5)[:len(cut(5))/2], "misnamed": cut(4)} {
		if err := os.WriteFile(s.path(5), damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		if step, blob, err := s.Latest(); err != nil || step != 3 || !bytes.Equal(blob, cut(3)) {
			t.Errorf("%s newest: Latest() = (%d, %q, %v), want the intact cut at 3", name, step, blob, err)
		}
	}
	if err := os.WriteFile(s.path(3), []byte("KMCK"), 0o644); err != nil {
		t.Fatal(err)
	}
	if step, blob, err := s.Latest(); step != -1 || blob != nil || err != nil {
		t.Errorf("nothing intact: Latest() = (%d, %q, %v), want (-1, nil, nil)", step, blob, err)
	}
}

// TestCheckpointDecodersBoundCounts: a count read off disk is checked
// against the bytes that remain before anything is sized by it.
func TestCheckpointDecodersBoundCounts(t *testing.T) {
	huge := wire.AppendUvarint(nil, 1<<40)
	// run 0, step 0, 2^40 parts
	container := append(append(append([]byte(nil), ckptMagic...), 0, 1), huge...)
	if _, _, _, _, err := DecodeCheckpoint(container); err == nil {
		t.Error("container claiming 2^40 parts in a dozen bytes decoded")
	}
	stats := AppendStats(nil, newStats(3))
	stats = append(stats[:len(stats)-1], huge...) // 2^40 per-superstep rows
	if _, err := DecodeStats(stats, 3); err == nil {
		t.Error("stats claiming 2^40 supersteps in a dozen bytes decoded")
	}
	if _, err := DecodeStats(AppendStats(nil, newStats(3)), 4); err == nil {
		t.Error("stats of a k=3 cluster decoded for k=4")
	}
}

// TestLatestCutResumesOnlyItsOwnRun: the cut a run starts from is the
// sink's newest one only when it carries the run's digest; another
// run's cut, whatever its superstep, leaves the run at superstep 0.
func TestLatestCutResumesOnlyItsOwnRun(t *testing.T) {
	sink := NewMemorySink()
	parts := [][]byte{[]byte("a"), []byte("b")}
	if err := sink.Put(7, AppendCheckpoint(nil, 0xfeed, 7, parts, nil)); err != nil {
		t.Fatal(err)
	}
	own := NewAssembler(CheckpointPolicy{Every: 1, Sink: sink, Run: 0xfeed}, 2)
	if cut, err := own.LatestCut(); err != nil || cut == nil || cut.Step != 7 || !bytes.Equal(cut.Parts[1], parts[1]) {
		t.Errorf("own run: LatestCut() = (%+v, %v), want the cut at 7", cut, err)
	}
	other := NewAssembler(CheckpointPolicy{Every: 1, Sink: sink, Run: 0xbeef}, 2)
	if cut, err := other.LatestCut(); err != nil || cut != nil {
		t.Errorf("another run: LatestCut() = (%+v, %v), want (nil, nil)", cut, err)
	}
}

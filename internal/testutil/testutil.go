// Package testutil holds tiny helpers shared by the failure-hardening
// test suites.
package testutil

import (
	"runtime"
	"testing"
	"time"
)

// NoLeakedGoroutines asserts that the number of live goroutines settles
// back to (at most) baseline, polling with a grace period so goroutines
// still draining after a teardown — deferred Closes, error cascades —
// get a moment to exit. Capture baseline with runtime.NumGoroutine()
// BEFORE the code under test spawns anything:
//
//	base := runtime.NumGoroutine()
//	defer testutil.NoLeakedGoroutines(t, base)
//
// On failure the full goroutine dump is attached, so a stuck read or an
// unreaped worker is immediately identifiable.
func NoLeakedGoroutines(t testing.TB, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for time.Now().Before(deadline) {
		n = runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Errorf("goroutine leak: %d running, baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
}

// WaitOrDump waits for done to close, failing the test with a full
// goroutine dump if it does not within timeout — the shared watchdog of
// the failure suites, whose whole point is that a distributed teardown
// drains instead of wedging.
func WaitOrDump(t testing.TB, done <-chan struct{}, timeout time.Duration, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(timeout):
		buf := make([]byte, 1<<20)
		t.Fatalf("%s still wedged after %v — the hang this suite guards against is back\n%s",
			what, timeout, buf[:runtime.Stack(buf, true)])
	}
}

// RejectsEveryPrefix asserts that decode — a wire codec's Decode —
// refuses every strict prefix of the complete encoding buf: each
// returns an error, none panics, and none reports consuming more bytes
// than it was given.
func RejectsEveryPrefix[M any](t testing.TB, decode func([]byte) (M, int, error), buf []byte) {
	t.Helper()
	for cut := 0; cut < len(buf); cut++ {
		if _, n, err := decode(buf[:cut:cut]); err == nil || n > cut {
			t.Fatalf("prefix %d/%d of % x: n=%d err=%v, want an error and n <= %d", cut, len(buf), buf, n, err, cut)
		}
	}
}

package core

import (
	"testing"

	"kmachine/internal/transport"
)

// Error paths of the cluster's configuration surface. What a
// misbehaving machine does to a run — invalid destinations, negative
// sizes, superstep exhaustion, panics, cancellation — is the table in
// conformance_test.go, which holds for both links.

func TestRunRejectsUnresolvableTransportKind(t *testing.T) {
	c := NewCluster(Config{K: 2, Bandwidth: 1, Seed: 1, Transport: transport.TCP}, func(id MachineID) Machine[pingMsg] {
		return MachineFunc[pingMsg](func(*StepContext, []Envelope[pingMsg]) ([]Envelope[pingMsg], bool) {
			return nil, true
		})
	})
	if _, err := c.Run(); err == nil {
		t.Fatal("Run() silently ignored Config.Transport=tcp")
	}
}

func TestLog2Words(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3},
		{1023, 10}, {1024, 11}, {1 << 20, 21},
	}
	for _, c := range cases {
		if got := Log2Words(c.n); got != c.want {
			t.Errorf("Log2Words(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// The deduplicated helpers must stay consistent with it.
	for _, n := range []int{1, 10, 1024, 1 << 20} {
		if DefaultBandwidth(n) != Log2Words(n) {
			t.Errorf("DefaultBandwidth(%d) != Log2Words", n)
		}
		if Bits(7, n) != 7*int64(Log2Words(n)) {
			t.Errorf("Bits(7, %d) inconsistent with Log2Words", n)
		}
	}
}

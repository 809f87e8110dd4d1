package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"kmachine/internal/transport"
)

// Error-path coverage for Cluster.Run: invalid destinations, negative
// sizes, superstep exhaustion, and machine panics must all surface as
// errors (never hang or crash the process), and the stats returned
// alongside the error must stay consistent.

func TestNegativeWordsRejected(t *testing.T) {
	c := NewCluster(Config{K: 2, Bandwidth: 1, Seed: 1}, func(id MachineID) Machine[pingMsg] {
		return MachineFunc[pingMsg](func(ctx *StepContext, inbox []Envelope[pingMsg]) ([]Envelope[pingMsg], bool) {
			return []Envelope[pingMsg]{{To: 1, Words: -3}}, true
		})
	})
	_, err := c.Run()
	if err == nil || !strings.Contains(err.Error(), "negative-size") {
		t.Fatalf("err = %v, want negative-size rejection", err)
	}
}

func TestInvalidDestinationNamesSenderAndTarget(t *testing.T) {
	c := NewCluster(Config{K: 3, Bandwidth: 1, Seed: 1}, func(id MachineID) Machine[pingMsg] {
		return MachineFunc[pingMsg](func(ctx *StepContext, inbox []Envelope[pingMsg]) ([]Envelope[pingMsg], bool) {
			if ctx.Self == 2 {
				return []Envelope[pingMsg]{{To: -1, Words: 1}}, true
			}
			return nil, true
		})
	})
	_, err := c.Run()
	if err == nil || !strings.Contains(err.Error(), "machine 2") {
		t.Fatalf("err = %v, want the offending machine named", err)
	}
}

func TestMachinePanicIsRecoveredWithContext(t *testing.T) {
	c := NewCluster(Config{K: 3, Bandwidth: 1, Seed: 1}, func(id MachineID) Machine[pingMsg] {
		return MachineFunc[pingMsg](func(ctx *StepContext, inbox []Envelope[pingMsg]) ([]Envelope[pingMsg], bool) {
			if ctx.Self == 1 && ctx.Superstep == 2 {
				panic("intentional test panic")
			}
			return nil, false
		})
	})
	_, err := c.Run()
	if err == nil {
		t.Fatal("panicking machine did not error the run")
	}
	for _, want := range []string{"machine 1", "superstep 2", "intentional test panic"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err %q missing %q", err, want)
		}
	}
}

func TestErrMaxSuperstepsCarriesPartialStats(t *testing.T) {
	c := NewCluster(Config{K: 2, Bandwidth: 1, Seed: 1, MaxSupersteps: 7}, func(id MachineID) Machine[pingMsg] {
		return MachineFunc[pingMsg](func(ctx *StepContext, inbox []Envelope[pingMsg]) ([]Envelope[pingMsg], bool) {
			return []Envelope[pingMsg]{{To: MachineID(1 - ctx.Self), Words: 1}}, false
		})
	})
	st, err := c.Run()
	if !errors.Is(err, ErrMaxSupersteps) {
		t.Fatalf("err = %v, want ErrMaxSupersteps", err)
	}
	if st == nil || st.Supersteps != 7 {
		t.Fatalf("partial stats = %+v, want 7 supersteps accounted", st)
	}
	if st.MaxRecvWords != st.RecvWords[0] && st.MaxRecvWords != st.RecvWords[1] {
		t.Errorf("finalize did not run on the error path: %+v", st)
	}
}

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

func TestOpenTransportUnknownKind(t *testing.T) {
	// "tcp/wire-v1" named the batch format wire v2 replaced; it is as
	// unknown as any other string now.
	for _, kind := range []transport.Kind{"carrier-pigeon", "tcp/wire-v1"} {
		if _, err := OpenTransport[pingMsg](kind, 2, nil); err == nil {
			t.Errorf("unknown transport kind %q accepted", kind)
		}
	}
	tr, err := OpenTransport[pingMsg]("", 2, nil)
	if err != nil {
		t.Fatalf("default transport: %v", err)
	}
	tr.Close()
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

func TestPreCanceledContextAbortsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewCluster(Config{K: 2, Bandwidth: 1, Seed: 1, Context: ctx}, func(id MachineID) Machine[pingMsg] {
		return MachineFunc[pingMsg](func(*StepContext, []Envelope[pingMsg]) ([]Envelope[pingMsg], bool) {
			t.Error("machine stepped under a pre-canceled context")
			return nil, true
		})
	})
	st, err := c.Run()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st == nil || st.Supersteps != 0 {
		t.Errorf("stats = %+v, want zero supersteps", st)
	}
}

func TestMidRunCancellationStopsCluster(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	steps := 0
	c := NewCluster(Config{K: 2, Bandwidth: 1, Seed: 1, Context: ctx}, func(id MachineID) Machine[pingMsg] {
		return MachineFunc[pingMsg](func(sc *StepContext, _ []Envelope[pingMsg]) ([]Envelope[pingMsg], bool) {
			if sc.Self == 0 {
				steps = sc.Superstep
				if sc.Superstep == 3 {
					cancel()
				}
			}
			return []Envelope[pingMsg]{{To: 1 - sc.Self, Words: 1}}, false
		})
	})
	_, err := c.Run()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if steps > 4 {
		t.Errorf("cluster ran %d supersteps past the cancellation", steps-3)
	}
}

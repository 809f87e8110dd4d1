package core

import "testing"

// pingMsg is a trivial payload for the tests.
type pingMsg struct {
	Hop int
}

// relayMachine sends `count` one-word messages to machine (self+1)%k in
// superstep 0 and is then done.
func relayMachine(count int) func(MachineID) Machine[pingMsg] {
	return func(id MachineID) Machine[pingMsg] {
		return MachineFunc[pingMsg](func(ctx *StepContext, inbox []Envelope[pingMsg]) ([]Envelope[pingMsg], bool) {
			if ctx.Superstep > 0 {
				return nil, true
			}
			out := make([]Envelope[pingMsg], 0, count)
			to := MachineID((int(ctx.Self) + 1) % ctx.K)
			for i := 0; i < count; i++ {
				out = append(out, Envelope[pingMsg]{To: to, Words: 1})
			}
			return out, true
		})
	}
}

func TestQuiescentClusterTerminatesInOneSuperstep(t *testing.T) {
	c := NewCluster(Config{K: 4, Bandwidth: 1, Seed: 1}, func(MachineID) Machine[pingMsg] {
		return MachineFunc[pingMsg](func(*StepContext, []Envelope[pingMsg]) ([]Envelope[pingMsg], bool) {
			return nil, true
		})
	})
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 0 || st.Supersteps != 0 {
		t.Errorf("idle cluster: rounds=%d supersteps=%d, want 0/0", st.Rounds, st.Supersteps)
	}
}

func TestBandwidthChargesCeil(t *testing.T) {
	// 10 one-word messages on each link, bandwidth 3 -> ceil(10/3)=4
	// rounds for the sending superstep. The final receive-only barrier is
	// pure local computation, which the model costs at zero.
	c := NewCluster(Config{K: 3, Bandwidth: 3, Seed: 1}, relayMachine(10))
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Supersteps != 1 {
		t.Fatalf("supersteps = %d, want 1 (drain barrier is free)", st.Supersteps)
	}
	if st.PerSuperstep[0].Rounds != 4 {
		t.Errorf("send superstep charged %d rounds, want ceil(10/3)=4", st.PerSuperstep[0].Rounds)
	}
	if st.Rounds != 4 {
		t.Errorf("total rounds = %d, want 4", st.Rounds)
	}
}

func TestLinkLoadIsPerLinkNotAggregate(t *testing.T) {
	// Machine 0 sends 8 words to machine 1 and 8 to machine 2: two
	// different links, so the superstep costs ceil(8/2)=4 rounds, not 8.
	c := NewCluster(Config{K: 3, Bandwidth: 2, Seed: 1}, func(id MachineID) Machine[pingMsg] {
		return MachineFunc[pingMsg](func(ctx *StepContext, inbox []Envelope[pingMsg]) ([]Envelope[pingMsg], bool) {
			if ctx.Superstep > 0 || ctx.Self != 0 {
				return nil, true
			}
			return []Envelope[pingMsg]{
				{To: 1, Words: 8},
				{To: 2, Words: 8},
			}, true
		})
	})
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.PerSuperstep[0].Rounds != 4 {
		t.Errorf("superstep rounds = %d, want 4 (parallel links)", st.PerSuperstep[0].Rounds)
	}
	if st.PerSuperstep[0].MaxLinkWords != 8 {
		t.Errorf("MaxLinkWords = %d, want 8", st.PerSuperstep[0].MaxLinkWords)
	}
}

func TestSelfMessagesAreFree(t *testing.T) {
	c := NewCluster(Config{K: 2, Bandwidth: 1, Seed: 1}, func(id MachineID) Machine[pingMsg] {
		return MachineFunc[pingMsg](func(ctx *StepContext, inbox []Envelope[pingMsg]) ([]Envelope[pingMsg], bool) {
			if ctx.Superstep == 0 && ctx.Self == 0 {
				return []Envelope[pingMsg]{{To: 0, Words: 1000, Msg: pingMsg{Hop: 1}}}, true
			}
			for _, e := range inbox {
				if e.Msg.Hop != 1 {
					t.Errorf("self message payload corrupted: %+v", e.Msg)
				}
			}
			return nil, true
		})
	})
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Words != 0 || st.Messages != 0 {
		t.Errorf("self messages were charged: words=%d msgs=%d", st.Words, st.Messages)
	}
	if st.Rounds != 1 {
		t.Errorf("rounds = %d, want 1 (one live superstep)", st.Rounds)
	}
}

func TestMessageDeliveryAndFromStamp(t *testing.T) {
	// Ring: each machine passes a token around once; every hop must
	// carry the correct From.
	const k = 5
	type tok struct{ Origin MachineID }
	c := NewCluster(Config{K: k, Bandwidth: 1, Seed: 1}, func(id MachineID) Machine[tok] {
		return MachineFunc[tok](func(ctx *StepContext, inbox []Envelope[tok]) ([]Envelope[tok], bool) {
			if ctx.Superstep == 0 {
				return []Envelope[tok]{{
					To:    MachineID((int(ctx.Self) + 1) % k),
					Words: 1,
					Msg:   tok{Origin: ctx.Self},
				}}, true
			}
			for _, e := range inbox {
				wantFrom := MachineID((int(ctx.Self) + k - 1) % k)
				if e.From != wantFrom {
					t.Errorf("machine %d got From=%d, want %d", ctx.Self, e.From, wantFrom)
				}
				if e.Msg.Origin != wantFrom {
					t.Errorf("payload origin %d, want %d", e.Msg.Origin, wantFrom)
				}
			}
			return nil, true
		})
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPerMachineAccounting(t *testing.T) {
	// Machine 0 sends 5 words to 1; machine 1 sends 2 words to 2.
	c := NewCluster(Config{K: 3, Bandwidth: 1, Seed: 1}, func(id MachineID) Machine[pingMsg] {
		return MachineFunc[pingMsg](func(ctx *StepContext, inbox []Envelope[pingMsg]) ([]Envelope[pingMsg], bool) {
			if ctx.Superstep > 0 {
				return nil, true
			}
			switch ctx.Self {
			case 0:
				return []Envelope[pingMsg]{{To: 1, Words: 5}}, true
			case 1:
				return []Envelope[pingMsg]{{To: 2, Words: 2}}, true
			}
			return nil, true
		})
	})
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.SentWords[0] != 5 || st.SentWords[1] != 2 || st.SentWords[2] != 0 {
		t.Errorf("SentWords = %v, want [5 2 0]", st.SentWords)
	}
	if st.RecvWords[0] != 0 || st.RecvWords[1] != 5 || st.RecvWords[2] != 2 {
		t.Errorf("RecvWords = %v, want [0 5 2]", st.RecvWords)
	}
	if st.MaxRecvWords != 5 {
		t.Errorf("MaxRecvWords = %d, want 5", st.MaxRecvWords)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() *Stats {
		// Each machine sends a random number of words to a random peer
		// for 5 supersteps; with fixed seed everything must agree.
		c := NewCluster(Config{K: 6, Bandwidth: 2, Seed: 77}, func(id MachineID) Machine[pingMsg] {
			return MachineFunc[pingMsg](func(ctx *StepContext, inbox []Envelope[pingMsg]) ([]Envelope[pingMsg], bool) {
				if ctx.Superstep >= 5 {
					return nil, true
				}
				to := MachineID(ctx.RNG.Intn(ctx.K))
				return []Envelope[pingMsg]{{To: to, Words: int32(1 + ctx.RNG.Intn(9))}}, false
			})
		})
		st, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.Rounds != b.Rounds || a.Words != b.Words || a.Messages != b.Messages {
		t.Errorf("non-deterministic run: %+v vs %+v", a, b)
	}
	for i := range a.RecvWords {
		if a.RecvWords[i] != b.RecvWords[i] {
			t.Errorf("machine %d RecvWords differ: %d vs %d", i, a.RecvWords[i], b.RecvWords[i])
		}
	}
}

func TestPendingMessagesKeepClusterAlive(t *testing.T) {
	// A machine that is "done" must still be woken to consume incoming
	// messages before the run terminates.
	var consumed bool
	c := NewCluster(Config{K: 2, Bandwidth: 1, Seed: 1}, func(id MachineID) Machine[pingMsg] {
		return MachineFunc[pingMsg](func(ctx *StepContext, inbox []Envelope[pingMsg]) ([]Envelope[pingMsg], bool) {
			if ctx.Self == 1 {
				if len(inbox) > 0 {
					consumed = true
				}
				return nil, true
			}
			if ctx.Superstep == 0 {
				return []Envelope[pingMsg]{{To: 1, Words: 1}}, true
			}
			return nil, true
		})
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !consumed {
		t.Error("message to a done machine was never delivered")
	}
}

func TestDefaultBandwidthGrowsLogarithmically(t *testing.T) {
	if DefaultBandwidth(1) < 1 {
		t.Error("DefaultBandwidth(1) < 1")
	}
	b1k, b1m := DefaultBandwidth(1024), DefaultBandwidth(1<<20)
	if b1k != 11 || b1m != 21 {
		t.Errorf("DefaultBandwidth(1024)=%d, (2^20)=%d; want 11, 21", b1k, b1m)
	}
}

func TestBitsConversion(t *testing.T) {
	// 1024-vertex words are 11 bits under the convention.
	if got := Bits(10, 1024); got != 110 {
		t.Errorf("Bits(10, 1024) = %d, want 110", got)
	}
}

func TestCongestedHotLinkSerialises(t *testing.T) {
	// All of machine 0's traffic to machine 1 serialises on one link,
	// while the same volume spread over k-1 links is ~k-1 times faster —
	// the congestion phenomenon behind the paper's routing lemmas.
	const words = 120
	hot := NewCluster(Config{K: 5, Bandwidth: 1, Seed: 1}, func(id MachineID) Machine[pingMsg] {
		return MachineFunc[pingMsg](func(ctx *StepContext, inbox []Envelope[pingMsg]) ([]Envelope[pingMsg], bool) {
			if ctx.Superstep > 0 || ctx.Self != 0 {
				return nil, true
			}
			return []Envelope[pingMsg]{{To: 1, Words: words}}, true
		})
	})
	spread := NewCluster(Config{K: 5, Bandwidth: 1, Seed: 1}, func(id MachineID) Machine[pingMsg] {
		return MachineFunc[pingMsg](func(ctx *StepContext, inbox []Envelope[pingMsg]) ([]Envelope[pingMsg], bool) {
			if ctx.Superstep > 0 || ctx.Self != 0 {
				return nil, true
			}
			out := []Envelope[pingMsg]{}
			for to := 1; to < ctx.K; to++ {
				out = append(out, Envelope[pingMsg]{To: MachineID(to), Words: words / 4})
			}
			return out, true
		})
	})
	hs, err := hot.Run()
	if err != nil {
		t.Fatal(err)
	}
	ss, err := spread.Run()
	if err != nil {
		t.Fatal(err)
	}
	if hs.Rounds != words {
		t.Errorf("hot-link rounds = %d, want %d", hs.Rounds, words)
	}
	if ss.Rounds != words/4 {
		t.Errorf("spread rounds = %d, want %d", ss.Rounds, words/4)
	}
}

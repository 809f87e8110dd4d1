package core

import (
	"testing"
	"testing/quick"
)

// Invariant tests on the statistics contract that the experiments rely
// on: per-superstep profiles must sum to the run totals, and the cost
// model must be consistent under load splitting.

func TestStatsPerSuperstepSumsToTotals(t *testing.T) {
	c := NewCluster(Config{K: 5, Bandwidth: 3, Seed: 9}, func(id MachineID) Machine[pingMsg] {
		return MachineFunc[pingMsg](func(ctx *StepContext, inbox []Envelope[pingMsg]) ([]Envelope[pingMsg], bool) {
			if ctx.Superstep >= 4 {
				return nil, true
			}
			out := []Envelope[pingMsg]{}
			for i := 0; i < 1+ctx.RNG.Intn(6); i++ {
				out = append(out, Envelope[pingMsg]{
					To:    MachineID(ctx.RNG.Intn(ctx.K)),
					Words: int32(1 + ctx.RNG.Intn(4)),
				})
			}
			return out, false
		})
	})
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	var rounds, msgs, words int64
	for _, ss := range st.PerSuperstep {
		rounds += ss.Rounds
		msgs += ss.Messages
		words += ss.Words
		if ss.Rounds < 1 {
			t.Error("superstep charged zero rounds")
		}
		if ss.MaxLinkWords > ss.Words {
			t.Error("per-link load exceeds total words")
		}
		if ss.MaxRecvWords > ss.Words || ss.MaxSentWords > ss.Words {
			t.Error("per-machine extreme exceeds superstep total")
		}
	}
	if rounds != st.Rounds || msgs != st.Messages || words != st.Words {
		t.Errorf("per-superstep sums (%d,%d,%d) != totals (%d,%d,%d)",
			rounds, msgs, words, st.Rounds, st.Messages, st.Words)
	}
	var sent, recv int64
	for i := range st.SentWords {
		sent += st.SentWords[i]
		recv += st.RecvWords[i]
	}
	if sent != st.Words || recv != st.Words {
		t.Errorf("sent %d / recv %d words, want both == total %d", sent, recv, st.Words)
	}
}

// TestCostModelSplitInvariance: sending W words on one link in one
// superstep costs the same as W one-word envelopes on the same link.
func TestCostModelSplitInvariance(t *testing.T) {
	run := func(split bool) int64 {
		c := NewCluster(Config{K: 2, Bandwidth: 3, Seed: 1}, func(id MachineID) Machine[pingMsg] {
			return MachineFunc[pingMsg](func(ctx *StepContext, inbox []Envelope[pingMsg]) ([]Envelope[pingMsg], bool) {
				if ctx.Superstep > 0 || ctx.Self != 0 {
					return nil, true
				}
				if split {
					out := make([]Envelope[pingMsg], 17)
					for i := range out {
						out[i] = Envelope[pingMsg]{To: 1, Words: 1}
					}
					return out, true
				}
				return []Envelope[pingMsg]{{To: 1, Words: 17}}, true
			})
		})
		st, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st.Rounds
	}
	if a, b := run(true), run(false); a != b {
		t.Errorf("split %d rounds vs bulk %d rounds; cost model not volume-based", a, b)
	}
}

func TestPropertyRoundsCeilDivision(t *testing.T) {
	// For any (words, bandwidth), a single hot link costs exactly
	// ceil(words/bandwidth) rounds.
	f := func(wRaw uint8, bRaw uint8) bool {
		words := int(wRaw)%200 + 1
		bw := int(bRaw)%16 + 1
		c := NewCluster(Config{K: 2, Bandwidth: bw, Seed: 1}, func(id MachineID) Machine[pingMsg] {
			return MachineFunc[pingMsg](func(ctx *StepContext, inbox []Envelope[pingMsg]) ([]Envelope[pingMsg], bool) {
				if ctx.Superstep > 0 || ctx.Self != 0 {
					return nil, true
				}
				return []Envelope[pingMsg]{{To: 1, Words: int32(words)}}, true
			})
		})
		st, err := c.Run()
		if err != nil {
			return false
		}
		want := int64((words + bw - 1) / bw)
		return st.Rounds == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNewClusterValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"k too small":    {K: 1, Bandwidth: 1},
		"zero bandwidth": {K: 2, Bandwidth: 0},
	} {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewCluster(%+v) did not panic", cfg)
				}
			}()
			NewCluster(cfg, func(MachineID) Machine[pingMsg] { return nil })
		})
	}
}

func TestMachineAccessor(t *testing.T) {
	var made []Machine[pingMsg]
	c := NewCluster(Config{K: 3, Bandwidth: 1, Seed: 1}, func(id MachineID) Machine[pingMsg] {
		m := MachineFunc[pingMsg](func(*StepContext, []Envelope[pingMsg]) ([]Envelope[pingMsg], bool) {
			return nil, true
		})
		made = append(made, m)
		return m
	})
	for i := 0; i < 3; i++ {
		if c.Machine(MachineID(i)) == nil {
			t.Fatalf("Machine(%d) is nil", i)
		}
	}
	if c.K() != 3 {
		t.Errorf("K() = %d, want 3", c.K())
	}
}

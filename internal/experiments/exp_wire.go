package experiments

import (
	"fmt"

	"kmachine/internal/algo"
	_ "kmachine/internal/algo/all"
	"kmachine/internal/transport"
)

// E20WireBytes compares the paper's cost model against the physical
// layer: every registered algorithm runs on the loopback transport and
// on the loopback-TCP substrate, and the table reports the model words
// (identical in both runs, by the accounting split) next to the actual
// bytes the batch format shipped. bytes/word is the physical cost of
// one model word: the encoding efficiency plus the protocol overhead
// (empty-batch frames, barrier and report/verdict frames) the model
// abstracts away.
func E20WireBytes(cfg Config) (Table, error) {
	t := Table{
		ID:     "E20",
		Title:  "bytes-on-wire: model words vs physical bytes",
		Claim:  "§1.1 cost model: rounds/words are substrate-independent; the wire format only changes physical bytes",
		Header: []string{"algo", "k", "n", "words", "wire bytes", "bytes/word", "stats equal"},
	}
	n := 400
	if cfg.Quick {
		n = 150
	}
	allEqual := true
	for _, entry := range algo.Entries() {
		prob := algo.Problem{N: n, K: 8, Seed: cfg.Seed + 271}
		switch entry.Name {
		case "pagerank":
			prob.N = n / 2
		case "conncomp":
			prob.EdgeP = 2 / float64(n)
		}
		mem, err := entry.Run(prob, transport.InMem)
		if err != nil {
			return t, fmt.Errorf("%s: inmem run: %w", entry.Name, err)
		}
		tcp, err := entry.Run(prob, transport.TCP)
		if err != nil {
			return t, fmt.Errorf("%s: tcp run: %w", entry.Name, err)
		}
		equal := sameOutcome(mem, tcp)
		allEqual = allEqual && equal
		bytesPerWord := 0.0
		if tcp.Stats.Words > 0 {
			bytesPerWord = float64(tcp.Wire.BytesSent) / float64(tcp.Stats.Words)
		}
		t.Rows = append(t.Rows, []string{
			entry.Name, itoa(prob.K), itoa(prob.N),
			i64(tcp.Stats.Words), i64(tcp.Wire.BytesSent), f64(bytesPerWord),
			fmt.Sprintf("%v", equal),
		})
	}
	t.Notes = append(t.Notes,
		"bytes/word > 1 is the physical reality the model abstracts: varint headers, empty-batch frames, barrier and report/verdict traffic",
		"decided by measurement: against the per-envelope From/To/Words layout it replaced, this format shipped 12-39% fewer bytes per algorithm, 19% registry-wide (this table as of PR 11)",
		fmt.Sprintf("Stats and output hash identical to the loopback run: %v", allEqual))
	return t, nil
}

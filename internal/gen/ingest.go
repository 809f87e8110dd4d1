// Out-of-core edge-list ingest: stream a text edge list from disk
// straight into the CSR shards of the machines a process hosts, so a
// real dataset can be run without any process ever materialising the
// full graph. Cost: one read of the file per process — not per machine —
// and O((n+m)/k) retained per hosted machine.
//
// File format: one edge per line, "u v" with whitespace separation;
// blank lines and lines starting with '#' are skipped. Vertex IDs are
// 0-based and must lie in [0, n); n is not stored in the file — it comes
// from the problem (kmnode -n). For undirected graphs each line is the
// edge {u,v}; for directed graphs it is the arc u->v.
package gen

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"kmachine/internal/graph"
	"kmachine/internal/partition"
)

// ScanEdgeList streams the edge list from r, calling emit for every edge
// line. It validates syntax and vertex range and reports errors with
// line numbers.
func ScanEdgeList(r io.Reader, n int, emit func(u, v int32)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		u, v, skip, err := parseEdgeLine(sc.Bytes(), n)
		if err != nil {
			return fmt.Errorf("gen: edge list line %d: %w", lineNo, err)
		}
		if skip {
			continue
		}
		emit(u, v)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("gen: edge list read: %w", err)
	}
	return nil
}

// parseEdgeLine parses "u v" from one line without allocating. skip is
// true for blank and comment lines.
func parseEdgeLine(line []byte, n int) (u, v int32, skip bool, err error) {
	i := 0
	skipWS := func() {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
			i++
		}
	}
	number := func() (int64, error) {
		start := i
		var x int64
		for i < len(line) && line[i] >= '0' && line[i] <= '9' {
			x = x*10 + int64(line[i]-'0')
			if x > int64(1)<<40 {
				return 0, fmt.Errorf("vertex ID out of range")
			}
			i++
		}
		if i == start {
			return 0, fmt.Errorf("expected vertex ID")
		}
		if x >= int64(n) {
			return 0, fmt.Errorf("vertex %d out of range [0,%d)", x, n)
		}
		return x, nil
	}
	skipWS()
	if i == len(line) || line[i] == '#' {
		return 0, 0, true, nil
	}
	uu, err := number()
	if err != nil {
		return 0, 0, false, err
	}
	skipWS()
	vv, err := number()
	if err != nil {
		return 0, 0, false, err
	}
	skipWS()
	if i != len(line) && line[i] != '#' {
		return 0, 0, false, fmt.Errorf("trailing garbage after edge")
	}
	return int32(uu), int32(vv), false, nil
}

// EdgeListInput returns the ShardedInput whose stream reads the edge
// list at path: the file is read ONCE per MachineViews call however many
// machines the process hosts (kmnode -local k -input f reads f once, not
// k times), O((n+m)/k) memory is retained per hosted machine, and there
// is no global graph object. Lines may come in any order, reversed, or
// repeated; the lines with a hosted endpoint are held until the file
// ends, all others are dropped as they are read. The file may be the
// full edge list or a per-machine split (cliutil's splitter) — any
// superset of a machine's incident edges ingests to the identical
// shard.
func EdgeListInput(path string, ps partition.Spec, directed bool) *partition.ShardedInput {
	return &partition.ShardedInput{Spec: ps, Directed: directed, Once: true,
		Stream: func(emit func(u, v int32)) error {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			return ScanEdgeList(f, ps.N, emit)
		}}
}

// WriteEdgeList writes g in the ingest file format: each undirected edge
// once as "u v" with u < v, each directed arc once.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	var err error
	g.Edges(func(u, v int32) bool {
		_, err = fmt.Fprintf(bw, "%d %d\n", u, v)
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// Package cliutil holds kmnode -split-out's edge-list splitter: turn one
// flat edge-list file into k per-machine files, each holding every edge
// incident to that machine's Home-owned vertices. A kmnode process then
// ingests only its own file (-input edges.m3.txt), reading O((n+m)/k)
// instead of the whole dataset — the out-of-core leg of partition-local
// setup. Because gen.EdgeListInput drops remote-remote lines,
// ingesting a split file produces the bit-identical shard the full file
// would.
package cliutil

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"kmachine/internal/core"
	"kmachine/internal/gen"
	"kmachine/internal/partition"
)

// SplitEdgeList streams the edge list at inPath once and writes k
// per-machine files into outDir, named <base>.m<ID>.txt. An edge whose
// endpoints live on two machines is written to both files (each machine
// stores its own vertices' full adjacency rows, §1.1). It returns the
// per-machine file paths in machine-ID order.
func SplitEdgeList(inPath, outDir string, spec partition.Spec) ([]string, error) {
	in, err := os.Open(inPath)
	if err != nil {
		return nil, err
	}
	defer in.Close()

	base := filepath.Base(inPath)
	if ext := filepath.Ext(base); ext != "" {
		base = base[:len(base)-len(ext)]
	}
	paths := make([]string, spec.K)
	writers := make([]*bufio.Writer, spec.K)
	files := make([]*os.File, spec.K)
	defer func() {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
	}()
	for m := 0; m < spec.K; m++ {
		paths[m] = filepath.Join(outDir, fmt.Sprintf("%s.m%d.txt", base, m))
		f, err := os.Create(paths[m])
		if err != nil {
			return nil, err
		}
		files[m] = f
		writers[m] = bufio.NewWriter(f)
	}

	var writeErr error
	scanErr := gen.ScanEdgeList(in, spec.N, func(u, v int32) {
		if writeErr != nil {
			return
		}
		hu, hv := spec.HomeOf(u), spec.HomeOf(v)
		if _, err := fmt.Fprintf(writers[hu], "%d %d\n", u, v); err != nil {
			writeErr = err
			return
		}
		if hv != hu {
			if _, err := fmt.Fprintf(writers[hv], "%d %d\n", u, v); err != nil {
				writeErr = err
			}
		}
	})
	if scanErr != nil {
		return nil, scanErr
	}
	if writeErr != nil {
		return nil, writeErr
	}
	for m := core.MachineID(0); int(m) < spec.K; m++ {
		if err := writers[m].Flush(); err != nil {
			return nil, err
		}
		if err := files[m].Close(); err != nil {
			return nil, err
		}
		files[m] = nil
	}
	return paths, nil
}

package partition

import (
	"fmt"

	"kmachine/internal/core"
)

// REP -> RVP conversion (paper §1.1, footnote 3): "one can transform the
// input partition from one model to the other in Õ(m/k² + n/k) rounds".
//
// The conversion is itself a k-machine computation: every machine sends
// each of its REP edges {u,v} to the (hash-computable) home machines of
// u and of v. Because edge owners and vertex homes are both uniform, each
// directed link carries Õ(m/k²) words whp, which is what the cluster
// measures.

// convMsg carries one edge to a vertex's home machine.
type convMsg struct {
	U, V int32
}

type convMachine struct {
	rep   *EdgePartition
	vseed uint64
	recv  [][2]int32
}

func (m *convMachine) Step(ctx *core.StepContext, inbox []core.Envelope[convMsg]) ([]core.Envelope[convMsg], bool) {
	for _, e := range inbox {
		m.recv = append(m.recv, [2]int32{e.Msg.U, e.Msg.V})
	}
	if ctx.Superstep > 0 {
		return nil, true
	}
	var out []core.Envelope[convMsg]
	for _, e := range m.rep.Edges(ctx.Self) {
		for _, end := range []int32{e[0], e[1]} {
			out = append(out, core.Envelope[convMsg]{
				To:    Home(m.vseed, end, m.rep.K),
				Words: 2, // two vertex IDs
				Msg:   convMsg{U: e[0], V: e[1]},
			})
		}
	}
	return out, true
}

// ConversionResult reports a measured REP -> RVP conversion.
type ConversionResult struct {
	// Stats is the cluster run profile (rounds, words, ...).
	Stats *core.Stats
	// RVP is the resulting vertex partition (hash-based with VertexSeed).
	RVP *VertexPartition
}

// ConvertREPToRVP runs the conversion on a cluster and verifies that each
// home machine ends with exactly the incident edges of its vertices.
// cfg.K must match the REP's k.
func ConvertREPToRVP(rep *EdgePartition, cfg core.Config, vertexSeed uint64) (*ConversionResult, error) {
	if cfg.K != rep.K {
		return nil, fmt.Errorf("partition: cluster k=%d but edge partition k=%d", cfg.K, rep.K)
	}
	machines := make([]*convMachine, cfg.K)
	cluster := core.NewCluster(cfg, func(id core.MachineID) core.Machine[convMsg] {
		m := &convMachine{rep: rep, vseed: vertexSeed}
		machines[id] = m
		return m
	})
	stats, err := cluster.Run()
	if err != nil {
		return nil, err
	}
	rvp := NewRVP(rep.G, cfg.K, vertexSeed)

	// Verification: rebuild each machine's local edge set and compare
	// against the ground-truth RVP view.
	for id, m := range machines {
		got := map[[2]int32]int{}
		for _, e := range m.recv {
			got[e]++
		}
		for _, v := range rvp.Locals(core.MachineID(id)) {
			for _, w := range rep.G.Adj(int(v)) {
				key := [2]int32{v, w}
				if !rep.G.Directed() && v > w {
					key = [2]int32{w, v}
				}
				if got[key] == 0 {
					return nil, errEdgeMissing(id, v, w)
				}
			}
		}
	}
	return &ConversionResult{Stats: stats, RVP: rvp}, nil
}

type conversionError struct {
	machine int
	u, w    int32
}

func errEdgeMissing(machine int, u, w int32) error {
	return &conversionError{machine: machine, u: u, w: w}
}

func (e *conversionError) Error() string {
	return fmt.Sprintf("partition: conversion left machine %d without a local edge (%d,%d)", e.machine, e.u, e.w)
}

package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// MeshTraffic (E19, extension) runs the classic interconnect-evaluation
// patterns over a 4x4 TCCluster mesh of dual-socket supernodes and
// reports delivered aggregate bandwidth. This is the network-level
// evidence behind the paper's scaling claim: dimension-order interval
// routing serves neighbor traffic at near-full fabric bandwidth, while
// adversarial patterns expose the congestion every real network has.
func MeshTraffic(flowBytes int) (*stats.Table, error) {
	if flowBytes == 0 {
		flowBytes = 16 << 10
	}
	const w, h = 4, 4
	t := &stats.Table{
		Title:   fmt.Sprintf("E19 — traffic patterns on a %dx%d mesh (%dKB per flow)", w, h, flowBytes>>10),
		Columns: []string{"pattern", "flows", "aggregate GB/s", "vs neighbor", "busiest link"},
	}
	patterns := []workload.Pattern{
		workload.NearestNeighbor{},
		workload.Transpose{Width: w},
		workload.UniformRandom{Seed: 42},
		workload.HotSpot{Target: w*h/2 + w/2},
	}
	var neighbor float64
	for _, pat := range patterns {
		topo, err := topology.Mesh(w, h)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		cfg.SocketsPerNode = 2
		cfg.Parallel = parallel
		c, err := core.New(topo, cfg)
		if err != nil {
			return nil, err
		}
		res, err := workload.Run(c, pat, 1, flowBytes)
		if err != nil {
			return nil, err
		}
		if neighbor == 0 {
			neighbor = res.AggregateBW
		}
		t.AddRow(res.Pattern,
			fmt.Sprintf("%d", res.Flows),
			fmt.Sprintf("%.2f", res.AggregateBW/1e9),
			fmt.Sprintf("%.2fx", res.AggregateBW/neighbor),
			fmt.Sprintf("%.0f%%", res.MaxLinkUtil*100))
	}
	return t, nil
}

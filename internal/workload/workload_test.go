package workload

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/topology"
)

func meshCluster(t *testing.T, w, h int) *core.Cluster {
	t.Helper()
	topo, err := topology.Mesh(w, h)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.SocketsPerNode = 2
	c, err := core.New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPatternsProduceValidDestinations(t *testing.T) {
	pats := []Pattern{NearestNeighbor{}, Transpose{Width: 4}, UniformRandom{Seed: 1}, HotSpot{Target: 0}}
	const n = 16
	for _, p := range pats {
		for src := 0; src < n; src++ {
			for k := 0; k < 8; k++ {
				d := p.Dest(src, n, k)
				if d == src && d != -1 {
					t.Errorf("%s: Dest(%d)=%d self-send", p.Name(), src, d)
				}
				if d < -1 || d >= n {
					t.Errorf("%s: Dest(%d)=%d out of range", p.Name(), src, d)
				}
			}
		}
	}
}

func TestUniformRandomIsDeterministic(t *testing.T) {
	a, b := UniformRandom{Seed: 9}, UniformRandom{Seed: 9}
	for src := 0; src < 8; src++ {
		for k := 0; k < 8; k++ {
			if a.Dest(src, 8, k) != b.Dest(src, 8, k) {
				t.Fatal("same seed diverged")
			}
		}
	}
	c := UniformRandom{Seed: 10}
	same := true
	for k := 0; k < 16 && same; k++ {
		same = a.Dest(0, 8, k) == c.Dest(0, 8, k)
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestTransposeSkipsDiagonal(t *testing.T) {
	p := Transpose{Width: 4}
	for i := 0; i < 4; i++ {
		if d := p.Dest(i*4+i, 16, 0); d != -1 {
			t.Errorf("diagonal node %d got destination %d", i*4+i, d)
		}
	}
	if d := p.Dest(1, 16, 0); d != 4 {
		t.Errorf("Dest(1) = %d, want 4 ((0,1)->(1,0))", d)
	}
}

func TestRunDeliversAllBytes(t *testing.T) {
	c := meshCluster(t, 2, 2)
	res, err := Run(c, NearestNeighbor{}, 1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes != 4*4096 {
		t.Errorf("total = %d", res.TotalBytes)
	}
	if res.AggregateBW <= 0 || res.Duration <= 0 {
		t.Errorf("bad result: %+v", res)
	}
}

// The interconnect-evaluation shape: nearest-neighbor exploits every
// link; hotspot serializes on one node's links and collapses.
func TestHotspotCollapsesVsNeighbor(t *testing.T) {
	cN := meshCluster(t, 3, 3)
	neighbor, err := Run(cN, NearestNeighbor{}, 1, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	cH := meshCluster(t, 3, 3)
	hot, err := Run(cH, HotSpot{Target: 4}, 1, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	if hot.AggregateBW >= neighbor.AggregateBW {
		t.Errorf("hotspot %.2f GB/s >= neighbor %.2f GB/s — congestion missing",
			hot.AggregateBW/1e9, neighbor.AggregateBW/1e9)
	}
	// The center node has 4 links; aggregate into it cannot exceed
	// roughly 4 x the per-link bound.
	if hot.AggregateBW > 4*3.0e9 {
		t.Errorf("hotspot %.2f GB/s exceeds the target's link capacity", hot.AggregateBW/1e9)
	}
}

// TestRunRejectsEmptyPattern: Run and Check reject the same patterns,
// both with ErrBadConfig.
func TestRunRejectsEmptyPattern(t *testing.T) {
	c := meshCluster(t, 2, 2)
	for _, tc := range []struct {
		name  string
		pat   Pattern
		flows int
	}{
		{"out-of-range target", HotSpot{Target: 99}, 1},
		{"zero flows", Transpose{Width: 2}, 0},
		{"transpose wider than the mesh", Transpose{Width: 4}, 1},
	} {
		if _, err := Run(c, tc.pat, tc.flows, 1024); !errors.Is(err, errs.ErrBadConfig) {
			t.Errorf("%s: Run = %v, want ErrBadConfig", tc.name, err)
		}
		if err := Check(tc.pat, c.N(), tc.flows); !errors.Is(err, errs.ErrBadConfig) {
			t.Errorf("%s: Check = %v, want ErrBadConfig", tc.name, err)
		}
	}
	if err := Check(NearestNeighbor{}, c.N(), 1); err != nil {
		t.Errorf("nearest-neighbor rejected: %v", err)
	}
}

// The hotspot pattern must show near-saturation on the busiest link
// into the target, while nearest-neighbor spreads the load.
func TestLinkUtilizationAccounting(t *testing.T) {
	cH := meshCluster(t, 3, 3)
	hot, err := Run(cH, HotSpot{Target: 4}, 1, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	if hot.MaxLinkUtil < 0.5 || hot.MaxLinkUtil > 1.05 {
		t.Errorf("hotspot busiest link = %.2f, want near saturation", hot.MaxLinkUtil)
	}
	cN := meshCluster(t, 3, 3)
	nb, err := Run(cN, NearestNeighbor{}, 1, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	if nb.MaxLinkUtil <= 0 || nb.MaxLinkUtil > 1.05 {
		t.Errorf("neighbor busiest link = %.2f", nb.MaxLinkUtil)
	}
}

package main

import (
	"strings"
	"testing"
)

// TestOverheadGate checks the gate as a pure function of the measured
// overheads: the ceiling is inclusive at 5%, each gated configuration
// is judged on its own, and an ungated configuration never fails it.
func TestOverheadGate(t *testing.T) {
	cases := []struct {
		name                          string
		profilePct, monitorPct, spans float64
		wantFail                      []string
	}{
		{"both under", 4.9, 4.9, 0, nil},
		{"profile over", 5.1, 4.9, 0, []string{"profile"}},
		{"monitor over", 4.9, 5.1, 0, []string{"monitor"}},
		{"both over", 5.1, 5.1, 0, []string{"profile", "monitor"}},
		{"faster than tracer", -2, -0.5, 0, nil},
		{"ungated spans over", 4.9, 4.9, 15, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := overheadGate([]overheadConfig{
				{Name: "tracer"},
				{Name: "profile", Gated: true, PctVsTracer: tc.profilePct},
				{Name: "monitor", Gated: true, PctVsTracer: tc.monitorPct},
				{Name: "spans", PctVsTracer: tc.spans},
			})
			if len(tc.wantFail) == 0 {
				if err != nil {
					t.Fatalf("gate failed: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("gate passed, want failure naming %v", tc.wantFail)
			}
			for _, cfg := range []string{"profile", "monitor", "spans"} {
				named := strings.Contains(err.Error(), cfg)
				want := false
				for _, f := range tc.wantFail {
					want = want || f == cfg
				}
				if named != want {
					t.Errorf("error %q names %s = %v, want %v", err, cfg, named, want)
				}
			}
		})
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.05, 1}, {0.5, 5}, {1, 10},
	} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 9 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

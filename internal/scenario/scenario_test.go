package scenario

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/errs"
)

// fullSpec exercises every field of the schema.
func fullSpec() *Scenario {
	smc := true
	return &Scenario{
		Version:  SpecVersion,
		Name:     "kitchen-sink",
		Topology: TopologySpec{Kind: "chain", Nodes: 4},
		Config: &ConfigSpec{
			SocketsPerNode: 2,
			CoresPerSocket: 2,
			LinkSpeedMHz:   800,
			LinkWidth:      16,
			CableErrorRate: 0.01,
			CableFlightNS:  25,
			MemPerNodeMB:   64,
			SMCDisabled:    &smc,
		},
		Workloads: []WorkloadSpec{
			{Kind: "pingpong", Pingpong: &PingpongParams{Rounds: 4}},
			{Kind: "allreduce", Allreduce: &AllreduceParams{PointsPerRank: 1000}},
		},
		Faults: []FaultSpec{
			{Kind: "link-degrade", Link: 0, AtNS: 100_000, ForNS: 2_000_000, Rate: 0.3},
			{Kind: "link-down", Link: 2, AtNS: 2_500_000, ForNS: 150_000},
			{Kind: "link-flap", Link: 1, AtNS: 1_000_000, Count: 3, PeriodNS: 50_000},
			{Kind: "node-crash", Node: 3, AtNS: 5_000_000},
		},
		Monitor:  &MonitorSpec{SampleEveryNS: 100_000, Windows: 32},
		Trace:    &TraceSpec{Buffer: 4096, Format: "csv", Output: "out.csv"},
		Seed:     11,
		Parallel: 2,
		Sweep:    &Sweep{Nodes: []int{4, 8}, Parallel: []int{0, 2}, Seeds: []uint64{1, 2}},
	}
}

// TestRoundTrip is the archival contract: marshal → parse → identical
// spec, still valid.
func TestRoundTrip(t *testing.T) {
	want := fullSpec()
	if err := want.Validate(); err != nil {
		t.Fatalf("full spec invalid: %v", err)
	}
	data, err := want.Marshal()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip changed the spec:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestParseRejects pins the strictness guarantees: unknown fields,
// wrong versions and malformed specs must fail loudly with
// ErrBadConfig, never run reinterpreted.
func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, spec, wantSub string
	}{
		{"unknown top-level field",
			`{"version":1,"name":"x","typo":true,"topology":{"kind":"chain","nodes":2},"workloads":[{"kind":"pingpong"}]}`,
			"typo"},
		{"unknown nested field",
			`{"version":1,"name":"x","topology":{"kind":"chain","nodes":2,"shape":"long"},"workloads":[{"kind":"pingpong"}]}`,
			"shape"},
		{"bad version",
			`{"version":99,"name":"x","topology":{"kind":"chain","nodes":2},"workloads":[{"kind":"pingpong"}]}`,
			"version 99"},
		{"missing version",
			`{"name":"x","topology":{"kind":"chain","nodes":2},"workloads":[{"kind":"pingpong"}]}`,
			"version 0"},
		{"no name",
			`{"version":1,"topology":{"kind":"chain","nodes":2},"workloads":[{"kind":"pingpong"}]}`,
			"no name"},
		{"unknown topology",
			`{"version":1,"name":"x","topology":{"kind":"blob","nodes":2},"workloads":[{"kind":"pingpong"}]}`,
			"blob"},
		{"unknown workload",
			`{"version":1,"name":"x","topology":{"kind":"chain","nodes":2},"workloads":[{"kind":"sort"}]}`,
			"sort"},
		{"no workloads",
			`{"version":1,"name":"x","topology":{"kind":"chain","nodes":2},"workloads":[]}`,
			"no workloads"},
		{"mismatched param block",
			`{"version":1,"name":"x","topology":{"kind":"chain","nodes":2},"workloads":[{"kind":"pingpong","cg":{}}]}`,
			"parameter block"},
		{"standalone not alone",
			`{"version":1,"name":"x","topology":{"kind":"chain","nodes":2},"workloads":[{"kind":"failure-tour"},{"kind":"pingpong"}]}`,
			"standalone"},
		{"pingpong on one node",
			`{"version":1,"name":"x","topology":{"kind":"chain","nodes":1},"workloads":[{"kind":"pingpong"}]}`,
			">= 2 nodes, got 1"},
		{"degrade rate out of range",
			`{"version":1,"name":"x","topology":{"kind":"chain","nodes":2},"workloads":[{"kind":"pingpong"}],"faults":[{"kind":"link-degrade","link":0,"at_ns":1,"rate":1.5}]}`,
			"rate"},
		{"negative link-down duration",
			`{"version":1,"name":"x","topology":{"kind":"chain","nodes":2},"workloads":[{"kind":"pingpong"}],"faults":[{"kind":"link-down","link":0,"at_ns":1,"for_ns":-5}]}`,
			"negative duration -5ns"},
		{"negative node-crash duration",
			`{"version":1,"name":"x","topology":{"kind":"chain","nodes":2},"workloads":[{"kind":"pingpong"}],"faults":[{"kind":"node-crash","node":1,"at_ns":1,"for_ns":-5}]}`,
			"negative duration -5ns"},
		{"negative degrade duration",
			`{"version":1,"name":"x","topology":{"kind":"chain","nodes":2},"workloads":[{"kind":"pingpong"}],"faults":[{"kind":"link-degrade","link":0,"at_ns":1,"for_ns":-5,"rate":0.1}]}`,
			"negative duration -5ns"},
		{"negative degrade penalty",
			`{"version":1,"name":"x","topology":{"kind":"chain","nodes":2},"workloads":[{"kind":"pingpong"}],"faults":[{"kind":"link-degrade","link":0,"at_ns":1,"rate":0.1,"penalty_ns":-1}]}`,
			"negative retry penalty -1ns"},
		{"unknown fault kind",
			`{"version":1,"name":"x","topology":{"kind":"chain","nodes":2},"workloads":[{"kind":"pingpong"}],"faults":[{"kind":"gremlin","at_ns":1}]}`,
			"gremlin"},
		{"crash outside topology",
			`{"version":1,"name":"x","topology":{"kind":"chain","nodes":2},"workloads":[{"kind":"pingpong"}],"faults":[{"kind":"node-crash","node":7,"at_ns":1}]}`,
			"outside"},
		{"unknown trace format",
			`{"version":1,"name":"x","topology":{"kind":"chain","nodes":2},"workloads":[{"kind":"pingpong"}],"trace":{"format":"xml"}}`,
			"xml"},
		{"node sweep on a mesh",
			`{"version":1,"name":"x","topology":{"kind":"mesh","width":2,"height":2},"workloads":[{"kind":"pingpong"}],"sweep":{"nodes":[4,8]}}`,
			"mesh"},
		{"unknown traffic pattern",
			`{"version":1,"name":"x","topology":{"kind":"chain","nodes":2},"workloads":[{"kind":"collectives","collectives":{"traffic":[{"pattern":"tornado"}]}}]}`,
			"tornado"},
		{"fault-recovery endpoints outside topology",
			`{"version":1,"name":"x","topology":{"kind":"chain","nodes":2},"workloads":[{"kind":"fault-recovery"}]}`,
			"outside"},
		// Rows below are rules the owning layers keep; Validate reaches
		// them by lowering the spec, and a sweep cell by expanding it.
		{"torus below 3x3",
			`{"version":1,"name":"x","topology":{"kind":"torus","width":2,"height":2},"workloads":[{"kind":"pingpong"}]}`,
			"got 2x2"},
		{"ring of two",
			`{"version":1,"name":"x","topology":{"kind":"ring","nodes":2},"workloads":[{"kind":"pingpong"}]}`,
			"got 2"},
		{"hypercube past four ports",
			`{"version":1,"name":"x","topology":{"kind":"hypercube","dim":5},"workloads":[{"kind":"pingpong"}]}`,
			"dimension 5"},
		{"full past four ports",
			`{"version":1,"name":"x","topology":{"kind":"full","nodes":10},"workloads":[{"kind":"pingpong"}]}`,
			"10 nodes needs 9 ports"},
		{"allreduce on one node",
			`{"version":1,"name":"x","topology":{"kind":"chain","nodes":1},"workloads":[{"kind":"allreduce"}]}`,
			"got 1"},
		{"serve value too small",
			`{"version":1,"name":"x","topology":{"kind":"chain","nodes":4},"workloads":[{"kind":"serve","serve":{"value_bytes":4}}]}`,
			"value size 4"},
		{"link-down past the last link",
			`{"version":1,"name":"x","topology":{"kind":"chain","nodes":4},"workloads":[{"kind":"pingpong"}],"faults":[{"kind":"link-down","link":99,"at_ns":1}]}`,
			"link 99 at 1ns: link outside [0,3)"},
		{"hotspot outside topology",
			`{"version":1,"name":"x","topology":{"kind":"chain","nodes":4},"workloads":[{"kind":"collectives","collectives":{"traffic":[{"pattern":"hotspot","target":99}]}}]}`,
			"0->99 outside 4 nodes"},
		{"transpose on a non-square mesh",
			`{"version":1,"name":"x","topology":{"kind":"mesh","width":4,"height":2},"workloads":[{"kind":"collectives","collectives":{"traffic":[{"pattern":"transpose"}]}}]}`,
			"2->8 outside 8 nodes"},
		{"node sweep to one node",
			`{"version":1,"name":"x","topology":{"kind":"chain","nodes":4},"workloads":[{"kind":"allreduce"}],"sweep":{"nodes":[1,4]}}`,
			`"x-n1": topology: chain needs >= 2 nodes, got 1`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.spec))
			if err == nil {
				t.Fatalf("spec accepted: %s", tc.spec)
			}
			if !errors.Is(err, errs.ErrBadConfig) {
				t.Fatalf("error not ErrBadConfig: %v", err)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestParseRejectsUnroutable: the northbridge has 8 MMIO ranges, one
// kept for real IO (§IV), and a 4-cube node needs 15 intervals. The
// error is ErrBadConfig like every spec error and still ErrUnroutable,
// the topology layer's own sentinel.
func TestParseRejectsUnroutable(t *testing.T) {
	spec := `{"version":1,"name":"x","topology":{"kind":"hypercube","dim":4},"workloads":[{"kind":"pingpong"}]}`
	_, err := Parse([]byte(spec))
	if !errors.Is(err, errs.ErrBadConfig) || !errors.Is(err, errs.ErrUnroutable) {
		t.Fatalf("got %v, want ErrBadConfig and ErrUnroutable", err)
	}
	if !strings.Contains(err.Error(), "needs 15 address intervals, northbridge has 7") {
		t.Fatalf("error %q does not name the interval count", err)
	}
}

// TestCommittedSpecsValid parses and expands every spec the repository
// ships, so a stricter Validate cannot reject one that is already
// committed.
func TestCommittedSpecsValid(t *testing.T) {
	var files []string
	for _, pat := range []string{"../../scenarios/*.json", "../../examples/*/scenario.json"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) < 12 {
		t.Fatalf("found %d committed specs, want at least 12", len(files))
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Parse(data)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if _, err := s.Cells(); err != nil {
			t.Errorf("%s: cells: %v", f, err)
		}
	}
}

// TestCells pins the sweep expansion: full cross product, descriptive
// names, swept fields applied, sweep block stripped from every cell.
func TestCells(t *testing.T) {
	s := fullSpec()
	cells, err := s.Cells()
	if err != nil {
		t.Fatalf("cells: %v", err)
	}
	if len(cells) != 2*2*2 {
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	names := map[string]bool{}
	for _, c := range cells {
		if c.Sweep != nil {
			t.Fatalf("cell %s kept its sweep block", c.Name)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("cell %s invalid: %v", c.Name, err)
		}
		names[c.Name] = true
	}
	want := "kitchen-sink-n8-p2-s1"
	if !names[want] {
		t.Fatalf("no cell named %s (got %v)", want, names)
	}
	for _, c := range cells {
		if c.Name == want {
			if c.Topology.Nodes != 8 || c.Parallel != 2 || c.Seed != 1 {
				t.Fatalf("cell %s carries nodes=%d parallel=%d seed=%d",
					c.Name, c.Topology.Nodes, c.Parallel, c.Seed)
			}
		}
	}

	// No sweep: the scenario expands to a single clone of itself.
	s2 := Default()
	cells, err = s2.Cells()
	if err != nil {
		t.Fatalf("cells: %v", err)
	}
	if len(cells) != 1 || cells[0] == s2 || !reflect.DeepEqual(cells[0], s2) {
		t.Fatalf("sweepless expansion: got %d cells (aliased=%v)", len(cells), cells[0] == s2)
	}
}

// TestBuildRejectsStandalone: the failure tour manages its own
// clusters; handing a pre-built one out would be a lie.
func TestBuildRejectsStandalone(t *testing.T) {
	s := Default()
	s.Workloads = []WorkloadSpec{{Kind: "failure-tour"}}
	if _, _, err := s.Build(); err == nil {
		t.Fatal("Build accepted a standalone workload")
	} else if !errors.Is(err, errs.ErrBadConfig) {
		t.Fatalf("error not ErrBadConfig: %v", err)
	}
}

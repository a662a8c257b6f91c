package monitor

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// snap builds an absolute snapshot from a counter map.
func snap(counters map[trace.Key]uint64) trace.Snapshot {
	s := trace.NewSnapshot()
	for k, v := range counters {
		s.Counters[k] = v
	}
	return s
}

var pktsKey = trace.Key{Name: "port.pkts_sent", Link: 1}

func TestRecorderDeltaComputation(t *testing.T) {
	r := NewFlightRecorder(8)
	w1 := r.Record(100*sim.Microsecond, snap(map[trace.Key]uint64{pktsKey: 5}), nil)
	if got := w1.CounterDelta(pktsKey); got != 5 {
		t.Fatalf("first window delta = %d, want 5 (baseline measures from boot)", got)
	}
	if w1.Start != 0 || w1.End != 100*sim.Microsecond {
		t.Fatalf("first window spans %v..%v, want 0..100us", w1.Start, w1.End)
	}

	w2 := r.Record(200*sim.Microsecond, snap(map[trace.Key]uint64{pktsKey: 12}), nil)
	if got := w2.CounterDelta(pktsKey); got != 7 {
		t.Fatalf("second window delta = %d, want 7", got)
	}
	if w2.Start != w1.End {
		t.Fatalf("windows not contiguous: w2.Start %v, w1.End %v", w2.Start, w1.End)
	}
	if got := w2.Totals.Counters[pktsKey]; got != 12 {
		t.Fatalf("Totals must stay absolute: got %d, want 12", got)
	}

	// A counter that went backwards (reset) is treated as freshly started,
	// never as a huge unsigned wraparound.
	w3 := r.Record(300*sim.Microsecond, snap(map[trace.Key]uint64{pktsKey: 3}), nil)
	if got := w3.CounterDelta(pktsKey); got != 3 {
		t.Fatalf("post-reset delta = %d, want 3", got)
	}
}

func TestRecorderRingBounded(t *testing.T) {
	r := NewFlightRecorder(8)
	if r.Capacity() != 8 {
		t.Fatalf("capacity = %d, want 8", r.Capacity())
	}
	for i := 1; i <= 20; i++ {
		r.Record(sim.Time(i)*sim.Microsecond,
			snap(map[trace.Key]uint64{pktsKey: uint64(i)}), nil)
	}
	wins := r.Windows()
	if len(wins) != 8 {
		t.Fatalf("retained %d windows, want 8", len(wins))
	}
	// Oldest first, and always the most recent 8 of the 20 recorded.
	for i, w := range wins {
		if want := int64(12 + i); w.Index != want {
			t.Fatalf("window %d has index %d, want %d", i, w.Index, want)
		}
	}
	last, ok := r.Last()
	if !ok || last.Index != 19 {
		t.Fatalf("Last() = (%v, %v), want index 19", last.Index, ok)
	}
}

func TestRecorderMinimumCapacity(t *testing.T) {
	if got := NewFlightRecorder(0).Capacity(); got != 4 {
		t.Fatalf("NewFlightRecorder(0).Capacity() = %d, want clamp to 4", got)
	}
}

func TestRecorderDumpJSON(t *testing.T) {
	r := NewFlightRecorder(4)
	r.Record(50*sim.Microsecond, snap(map[trace.Key]uint64{pktsKey: 9}), []core.LinkStatus{
		{ID: 1, State: "active", Type: "ncHT", Width: 16, SpeedMHz: 800, Bandwidth: 3.2e9},
	})
	var buf bytes.Buffer
	if err := r.WriteDump(&buf, "unit test"); err != nil {
		t.Fatal(err)
	}
	var d struct {
		Reason  string `json:"reason"`
		Windows []struct {
			Index    int64 `json:"index"`
			EndPS    int64 `json:"end_ps"`
			Counters []struct {
				Name  string `json:"name"`
				Link  int    `json:"link"`
				Value uint64 `json:"value"`
			} `json:"counters"`
			Links []core.LinkStatus `json:"links"`
		} `json:"windows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, buf.String())
	}
	if d.Reason != "unit test" || len(d.Windows) != 1 {
		t.Fatalf("dump = %+v, want reason and one window", d)
	}
	w := d.Windows[0]
	if w.EndPS != int64(50*sim.Microsecond) || len(w.Counters) != 1 ||
		w.Counters[0].Value != 9 || len(w.Links) != 1 || w.Links[0].State != "active" {
		t.Fatalf("window round-trip mismatch: %+v", w)
	}
}

func TestRecorderDumpFile(t *testing.T) {
	r := NewFlightRecorder(4)
	r.Record(10*sim.Microsecond, snap(map[trace.Key]uint64{pktsKey: 1}), nil)
	path := filepath.Join(t.TempDir(), "incident.json")
	if err := r.DumpFile(path, "alert"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Fatal("dump file is not valid JSON")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind after rename")
	}
}

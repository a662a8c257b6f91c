package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

func TestCollectorKeepsMostRecent(t *testing.T) {
	c := NewCollector(16)
	for i := 0; i < 40; i++ {
		c.Emit(Event{At: sim.Time(i), Kind: KindCreditStall, Link: 0, Seq: uint64(i)})
	}
	evs := c.Events()
	if len(evs) != 16 {
		t.Fatalf("got %d events, want 16", len(evs))
	}
	if evs[0].Seq != 24 || evs[15].Seq != 39 {
		t.Fatalf("ring kept wrong window: first seq %d, last %d", evs[0].Seq, evs[15].Seq)
	}
	if c.Dropped() != 24 {
		t.Fatalf("dropped = %d, want 24", c.Dropped())
	}
	if c.Total() != 40 {
		t.Fatalf("total = %d, want 40", c.Total())
	}
}

// TestCollectorConcurrentEmit: emitters on several goroutines share one
// collector; its lock keeps the ring and counts exact, and -race checks
// it.
func TestCollectorConcurrentEmit(t *testing.T) {
	c := NewCollector(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := uint64(0); i < 1000; i++ {
				c.Emit(Event{At: sim.Time(i), Kind: KindPacketSent, Link: 0, Src: src, Seq: i})
				c.Emit(Event{At: sim.Time(i) + 500, Kind: KindPacketDelivered, Link: 0, Src: src, Seq: i})
			}
		}(g)
	}
	wg.Wait()
	if c.Total() != 8000 || c.Dropped() != 8000-64 || len(c.Events()) != 64 {
		t.Fatalf("total/dropped/kept = %d/%d/%d, want 8000/7936/64",
			c.Total(), c.Dropped(), len(c.Events()))
	}
}

func TestWriteChromeValidAndOrdered(t *testing.T) {
	c := NewCollector(256)
	// A packet pair, a stall, a barrier, a boot phase.
	c.Emit(Event{At: 0, Kind: KindBootPhase, Node: 0, Link: -1, Label: "cold-reset"})
	c.Emit(Event{At: 100, Kind: KindPacketSent, Link: 0, Src: 0, Dst: 1, Seq: 1, Bytes: 72, Label: "WrPosted"})
	c.Emit(Event{At: 150, Kind: KindCreditStall, Link: 0, Src: 0})
	c.Emit(Event{At: 400, Kind: KindPacketDelivered, Link: 0, Src: 0, Dst: 1, Seq: 1, Bytes: 72})
	c.Emit(Event{At: 500, Kind: KindBarrierEnter, Node: 1, Link: -1, Seq: 3})
	c.Emit(Event{At: 900, Kind: KindBarrierExit, Node: 1, Link: -1, Seq: 3})

	var buf bytes.Buffer
	if err := WriteChrome(&buf, c.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid chrome trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	lastTs := -1.0
	var sawComplete, sawBarrier bool
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue // metadata leads, has no timestamp
		}
		if ev.Ts < lastTs {
			t.Fatalf("events out of time order: %v after %v", ev.Ts, lastTs)
		}
		lastTs = ev.Ts
		if ev.Ph == "X" && ev.Name == "WrPosted" {
			sawComplete = true
			if ev.Dur <= 0 {
				t.Fatalf("complete event with non-positive duration %v", ev.Dur)
			}
		}
		if ev.Ph == "B" && ev.Name == "barrier" {
			sawBarrier = true
		}
	}
	if !sawComplete {
		t.Fatal("matched packet pair did not render as an X slice")
	}
	if !sawBarrier {
		t.Fatal("barrier did not render as a B slice")
	}
}

func TestWriteChromeDeterministic(t *testing.T) {
	emit := func() []byte {
		c := NewCollector(64)
		c.Emit(Event{At: 10, Kind: KindBootPhase, Node: 0, Label: "a"})
		c.Emit(Event{At: 10, Kind: KindBootPhase, Node: 1, Label: "b"})
		c.Emit(Event{At: 20, Kind: KindPacketSent, Link: 1, Src: 1, Seq: 9, Bytes: 12, Label: "p"})
		c.Emit(Event{At: 30, Kind: KindPacketDelivered, Link: 1, Src: 1, Seq: 9})
		var buf bytes.Buffer
		if err := WriteChrome(&buf, c.Events()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(emit(), emit()) {
		t.Fatal("chrome export is not deterministic for identical event streams")
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	events := []Event{
		{At: 42, Kind: KindRingFull, Node: -1, Link: -1, Src: 0, Dst: 2},
		{At: 43, Kind: KindPacketSent, Link: 1, Seq: 7, Bytes: 64, Label: "x,y"},
	}
	if err := WriteCSV(&buf, events); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2", len(lines))
	}
	if !strings.HasPrefix(lines[0], "at_ps,kind,") {
		t.Fatalf("bad header: %q", lines[0])
	}
	if !strings.Contains(lines[1], "ring-full") {
		t.Fatalf("bad row: %q", lines[1])
	}
	if !strings.Contains(lines[2], `"x,y"`) {
		t.Fatalf("comma in label not quoted: %q", lines[2])
	}
}

func TestSnapshotMergeAndKeys(t *testing.T) {
	s := NewSnapshot()
	s.Counters[Key{Name: "b"}] = 2
	s.Counters[Key{Name: "a", Link: 1}] = 1
	s.Gauges[Key{Name: "g"}] = 3.5
	other := NewSnapshot()
	other.Counters[Key{Name: "c"}] = 9
	s.Merge(other)
	keys := s.Keys()
	if len(keys) != 3 || keys[0].Name != "a" || keys[2].Name != "c" {
		t.Fatalf("keys = %v", keys)
	}
	if s.Gauges[Key{Name: "g"}] != 3.5 {
		t.Fatal("gauge lost in snapshot")
	}
}

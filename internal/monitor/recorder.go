package monitor

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DefaultRecorderWindows bounds the flight recorder: at the default
// 100 us sampling window this is the last ~6.4 ms of virtual time.
const DefaultRecorderWindows = 64

// Window is one closed sampling interval: the counter deltas accrued
// over it plus the absolute snapshot at its end.
type Window struct {
	Index int64    `json:"index"`
	Start sim.Time `json:"start_ps"`
	End   sim.Time `json:"end_ps"`
	// Delta holds counters only: each counter's increase over the
	// window. Gauges and histograms are read from Totals.
	Delta trace.Snapshot
	// Totals is the absolute snapshot at End; rules that need "has this
	// link ever delivered" read it instead of re-summing deltas.
	Totals trace.Snapshot
	Links  []core.LinkStatus `json:"links"`
}

// Duration returns the window's width in virtual time.
func (w Window) Duration() sim.Time { return w.End - w.Start }

// CounterDelta returns the windowed increase of one counter.
func (w Window) CounterDelta(k trace.Key) uint64 { return w.Delta.Counters[k] }

// FlightRecorder keeps the most recent windows in a bounded ring so the
// moments *leading into* an incident survive it — the same reason an
// aircraft recorder overwrites oldest-first. Record runs on the
// simulation goroutine; Windows/WriteDump may run anywhere.
type FlightRecorder struct {
	mu    sync.Mutex
	ring  []Window
	start int
	count int
	index int64

	prev    trace.Snapshot
	prevSet bool
	prevAt  sim.Time
}

// NewFlightRecorder returns a recorder bounded to n windows (minimum 4).
func NewFlightRecorder(n int) *FlightRecorder {
	if n < 4 {
		n = 4
	}
	return &FlightRecorder{ring: make([]Window, 0, n)}
}

// Capacity returns the maximum number of retained windows.
func (r *FlightRecorder) Capacity() int { return cap(r.ring) }

// Record closes the window ending at now from the absolute snapshot
// totals, storing counter deltas against the previous sample; the
// window's Delta carries no gauges or histograms. The first call
// establishes the baseline: deltas are measured from boot, with Start
// left at the recorder's creation time of zero.
func (r *FlightRecorder) Record(now sim.Time, totals trace.Snapshot, links []core.LinkStatus) Window {
	r.mu.Lock()
	defer r.mu.Unlock()
	delta := trace.Snapshot{Counters: make(map[trace.Key]uint64, len(totals.Counters))}
	for k, v := range totals.Counters {
		prev := uint64(0)
		if r.prevSet {
			prev = r.prev.Counters[k]
		}
		if v >= prev {
			delta.Counters[k] = v - prev
		} else {
			delta.Counters[k] = v // counter reset; treat as fresh
		}
	}
	w := Window{
		Index:  r.index,
		Start:  r.prevAt,
		End:    now,
		Delta:  delta,
		Totals: totals,
		Links:  links,
	}
	r.index++
	r.prev = totals
	r.prevSet = true
	r.prevAt = now
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, w)
		r.count = len(r.ring)
	} else {
		r.ring[r.start] = w
		r.start = (r.start + 1) % len(r.ring)
	}
	return w
}

// Windows returns the retained windows, oldest first.
func (r *FlightRecorder) Windows() []Window {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Window, r.count)
	for i := 0; i < r.count; i++ {
		out[i] = r.ring[(r.start+i)%r.count]
	}
	return out
}

// Last returns the most recently closed window.
func (r *FlightRecorder) Last() (Window, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count == 0 {
		return Window{}, false
	}
	return r.ring[(r.start+r.count-1)%r.count], true
}

// Dump is the on-disk/HTTP shape of a flight-recorder dump.
type Dump struct {
	Reason   string       `json:"reason"`
	WallTime time.Time    `json:"wall_time"`
	Windows  []WindowJSON `json:"windows"`
}

// WriteDump serializes the retained windows as indented JSON.
func (r *FlightRecorder) WriteDump(w io.Writer, reason string) error {
	wins := r.Windows()
	d := Dump{Reason: reason, WallTime: time.Now(), Windows: make([]WindowJSON, len(wins))}
	for i, win := range wins {
		d.Windows[i] = windowToJSON(win)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// DumpFile writes the dump atomically-ish (temp file + rename) so a
// half-written dump never masquerades as a complete one.
func (r *FlightRecorder) DumpFile(path, reason string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := r.WriteDump(f, reason); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

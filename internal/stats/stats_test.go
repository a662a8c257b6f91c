package stats

import (
	"bytes"
	"strings"
	"testing"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	s.Add(64, 200)
	s.Add(1024, 1500)
	if y, ok := s.YAt(64); !ok || y != 200 {
		t.Errorf("YAt(64) = %v,%v", y, ok)
	}
	if _, ok := s.YAt(128); ok {
		t.Error("YAt(128) found a phantom point")
	}
	if s.MaxY() != 1500 {
		t.Errorf("MaxY = %v", s.MaxY())
	}
}

func TestFigureRender(t *testing.T) {
	f := &Figure{Title: "TCCluster Bandwidth", XLabel: "size", YLabel: "MB/s"}
	a := f.AddSeries("weak")
	a.Add(64, 2700)
	a.Add(1024, 2750)
	b := f.AddSeries("ordered")
	b.Add(64, 2000)
	var buf bytes.Buffer
	f.Render(&buf)
	out := buf.String()
	for _, want := range []string{"TCCluster Bandwidth", "weak", "ordered", "64B", "1KB", "2700", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFigureCSV(t *testing.T) {
	f := &Figure{XLabel: "size"}
	f.AddSeries("a").Add(64, 1.5)
	var buf bytes.Buffer
	f.CSV(&buf)
	if got := buf.String(); got != "size,a\n64,1.5\n" {
		t.Errorf("CSV = %q", got)
	}
}

func TestTableRenderAlignment(t *testing.T) {
	tab := &Table{Title: "t", Columns: []string{"name", "value"}}
	tab.AddRow("short", "1")
	tab.AddRow("a-much-longer-name", "22")
	var buf bytes.Buffer
	tab.Render(&buf)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.Contains(lines[2], "----") {
		t.Error("missing separator row")
	}
}

// TestHistogram: a sorted sample slice is the latency distribution E14
// keeps; Mean and nearest-rank Percentile summarize it.
func TestHistogram(t *testing.T) {
	samples := make([]float64, 0, 100)
	for i := 1; i <= 100; i++ {
		samples = append(samples, float64(i))
	}
	if lo, hi := Percentile(samples, 0), Percentile(samples, 100); lo != 1 || hi != 100 {
		t.Errorf("min/max = %v/%v", lo, hi)
	}
	if m := Mean(samples); m != 50.5 {
		t.Errorf("mean = %v", m)
	}
	if p := Percentile(samples, 50); p != 50 {
		t.Errorf("p50 = %v", p)
	}
	if p := Percentile(samples, 99); p != 99 {
		t.Errorf("p99 = %v", p)
	}
	if Mean(nil) != 0 || Percentile(nil, 50) != 0 || Percentile(nil, 0) != 0 {
		t.Error("empty samples not zero-valued")
	}
}

func TestFormatters(t *testing.T) {
	cases := map[float64]string{
		64:      "64B",
		4096:    "4KB",
		1 << 20: "1MB",
		1 << 30: "1GB",
		100:     "100B",
	}
	for in, want := range cases {
		if got := FormatSize(in); got != want {
			t.Errorf("FormatSize(%v) = %q, want %q", in, got, want)
		}
	}
	if got := FormatMBs(2.7e9); got != "2700 MB/s" {
		t.Errorf("FormatMBs = %q", got)
	}
}

func TestFigureChart(t *testing.T) {
	f := &Figure{Title: "bw", YLabel: "MB/s"}
	a := f.AddSeries("tcc")
	a.Add(64, 2830)
	b := f.AddSeries("ib")
	b.Add(64, 190)
	var buf bytes.Buffer
	f.Chart(&buf, 40)
	out := buf.String()
	if !strings.Contains(out, "tcc") || !strings.Contains(out, "ib") {
		t.Fatalf("chart missing series:\n%s", out)
	}
	// The dominant series gets the full bar width; the small one at
	// least one block.
	lines := strings.Split(out, "\n")
	var tccBar, ibBar int
	for _, l := range lines {
		if strings.Contains(l, "tcc") {
			tccBar = strings.Count(l, "#")
		}
		if strings.Contains(l, "ib ") {
			ibBar = strings.Count(l, "#")
		}
	}
	if tccBar != 40 {
		t.Errorf("tcc bar = %d, want 40", tccBar)
	}
	if ibBar < 1 || ibBar > 4 {
		t.Errorf("ib bar = %d, want small but visible", ibBar)
	}
	var empty Figure
	empty.Chart(&buf, 10) // must not panic on an empty figure
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Columns: []string{"a", "b"}}
	tab.AddRow("1", "2")
	tab.AddRow("3", "4")
	var buf bytes.Buffer
	tab.CSV(&buf)
	if got := buf.String(); got != "a,b\n1,2\n3,4\n" {
		t.Errorf("CSV = %q", got)
	}
}

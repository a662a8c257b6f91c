// Package stats provides the measurement containers and text renderers
// the benchmark harness uses to regenerate the paper's figures and
// tables: XY series (Fig. 6/7 style), aligned tables, CSV output and
// summary statistics of sorted latency samples.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Point is one measurement: X is the swept parameter (message size,
// node count, ...), Y the measured value.
type Point struct {
	X, Y float64
}

// Series is a named curve.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{X: x, Y: y}) }

// YAt returns the Y value at the first point with the given X, and
// whether one exists.
func (s *Series) YAt(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// MaxY returns the largest Y value (0 for an empty series).
func (s *Series) MaxY() float64 {
	m := 0.0
	for _, p := range s.Points {
		if p.Y > m {
			m = p.Y
		}
	}
	return m
}

// Figure is a set of series sharing an X axis, renderable as the text
// analogue of one of the paper's plots.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// AddSeries creates, registers and returns a new series.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// Render writes the figure as an aligned table: one row per X value,
// one column per series.
func (f *Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", f.Title)
	cols := []string{f.XLabel}
	for _, s := range f.Series {
		cols = append(cols, s.Name)
	}
	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)
	t := &Table{Columns: cols}
	for _, x := range sorted {
		row := []string{FormatSize(x)}
		for _, s := range f.Series {
			if y, ok := s.YAt(x); ok {
				row = append(row, fmt.Sprintf("%.1f", y))
			} else {
				row = append(row, "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	t.Render(w)
	fmt.Fprintf(w, "(y: %s)\n", f.YLabel)
}

// Chart renders the figure as horizontal ASCII bars, one block per
// series per X value — the terminal rendition of the paper's plots.
func (f *Figure) Chart(w io.Writer, width int) {
	if width <= 0 {
		width = 50
	}
	fmt.Fprintf(w, "# %s (bar = %s)\n", f.Title, f.YLabel)
	max := 0.0
	for _, s := range f.Series {
		if m := s.MaxY(); m > max {
			max = m
		}
	}
	if max == 0 {
		return
	}
	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)
	nameW := 0
	for _, s := range f.Series {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	for _, x := range sorted {
		fmt.Fprintf(w, "%s\n", FormatSize(x))
		for _, s := range f.Series {
			y, ok := s.YAt(x)
			if !ok {
				continue
			}
			bars := int(y / max * float64(width))
			if bars == 0 && y > 0 {
				bars = 1
			}
			fmt.Fprintf(w, "  %-*s |%s %.1f\n", nameW, s.Name, strings.Repeat("#", bars), y)
		}
	}
}

// CSV writes the figure as comma-separated values.
func (f *Figure) CSV(w io.Writer) {
	cols := []string{f.XLabel}
	for _, s := range f.Series {
		cols = append(cols, s.Name)
	}
	fmt.Fprintln(w, strings.Join(cols, ","))
	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)
	for _, x := range sorted {
		row := []string{fmt.Sprintf("%g", x)}
		for _, s := range f.Series {
			if y, ok := s.YAt(x); ok {
				row = append(row, fmt.Sprintf("%g", y))
			} else {
				row = append(row, "")
			}
		}
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

// Table is an aligned text table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "# %s\n", t.Title)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Columns, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

// Mean returns the arithmetic mean of samples (0 when empty).
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// Percentile returns the nearest-rank p-th percentile (p in [0,100]) of
// sorted, an ascending slice (0 when empty).
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(0, min(idx, len(sorted)-1))]
}

// FormatSize renders a byte count compactly (64B, 4KB, 1MB).
func FormatSize(b float64) string {
	switch {
	case b >= 1<<30 && math.Mod(b, 1<<30) == 0:
		return fmt.Sprintf("%gGB", b/(1<<30))
	case b >= 1<<20 && math.Mod(b, 1<<20) == 0:
		return fmt.Sprintf("%gMB", b/(1<<20))
	case b >= 1<<10 && math.Mod(b, 1<<10) == 0:
		return fmt.Sprintf("%gKB", b/(1<<10))
	default:
		return fmt.Sprintf("%gB", b)
	}
}

// FormatMBs renders a bytes-per-second rate in MB/s as the paper does.
func FormatMBs(bps float64) string {
	return fmt.Sprintf("%.0f MB/s", bps/1e6)
}

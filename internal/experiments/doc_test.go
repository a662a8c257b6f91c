package experiments

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

const experimentsDoc = "../../EXPERIMENTS.md"

// goldenTable is one table of the golden file, with its rows keyed by
// their first cell.
type goldenTable struct {
	section string
	rows    map[string][]string
}

// goldenTables indexes every golden table by its header row: the line
// after a "# title" line, when it has " | " separated columns.
func goldenTables(t *testing.T) map[string]goldenTable {
	t.Helper()
	tables := map[string]goldenTable{}
	for name, body := range goldenSections(t) {
		lines := strings.Split(body, "\n")
		for i := 0; i+1 < len(lines); i++ {
			if !strings.HasPrefix(lines[i], "# ") || !strings.Contains(lines[i+1], " | ") {
				continue
			}
			header := lines[i+1]
			if prev, dup := tables[header]; dup {
				t.Fatalf("golden sections %s and %s share the header %q", prev.section, name, header)
			}
			g := goldenTable{section: name, rows: map[string][]string{}}
			for _, line := range lines[i+2:] {
				if line == "" || strings.HasPrefix(line, "#") {
					break
				}
				cells := strings.Split(line, "|")
				for j := range cells {
					cells[j] = strings.TrimSpace(cells[j])
				}
				g.rows[cells[0]] = cells
			}
			tables[header] = g
		}
	}
	return tables
}

// docRow is one body row of a markdown pipe table and its line number.
type docRow struct {
	line  int
	cells []string
}

// docTables returns every markdown pipe table in doc as its header row
// followed by its body rows; the delimiter row is dropped and ** emphasis
// stripped from every cell.
func docTables(doc string) [][]docRow {
	var tables [][]docRow
	var cur []docRow
	for i, line := range strings.Split(doc, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") {
			if len(cur) > 0 {
				tables = append(tables, cur)
				cur = nil
			}
			continue
		}
		cells := strings.Split(strings.TrimSuffix(strings.TrimPrefix(line, "|"), "|"), "|")
		for j := range cells {
			cells[j] = strings.ReplaceAll(strings.TrimSpace(cells[j]), "**", "")
		}
		if len(cur) == 1 && strings.Trim(strings.Join(cells, ""), "-: ") == "" {
			continue
		}
		cur = append(cur, docRow{line: i + 1, cells: cells})
	}
	if len(cur) > 0 {
		tables = append(tables, cur)
	}
	return tables
}

// number splits a cell into a decimal number, its fraction digits and
// its unit suffix ("2830 MB/s", "6.2x", "97%").
var number = regexp.MustCompile(`^(-?[0-9]+(?:\.([0-9]+))?)(.*)$`)

// cellMatches reports whether a doc cell states the golden cell: equal
// text, or the same unit with the golden number rounded to the doc
// number's precision.
func cellMatches(doc, golden string) bool {
	if doc == golden {
		return true
	}
	d, g := number.FindStringSubmatch(doc), number.FindStringSubmatch(golden)
	if d == nil || g == nil || d[3] != g[3] {
		return false
	}
	v, err := strconv.ParseFloat(g[1], 64)
	return err == nil && strconv.FormatFloat(v, 'f', len(d[2]), 64) == d[1]
}

// TestExperimentsDocMatchesGolden keeps the paper-vs-reproduction
// write-up on the pinned answers: every EXPERIMENTS.md table whose
// header row is a golden table's header row must state, row for row,
// what the golden file says. A doc row names its golden row by its
// first cell; ** emphasis is ignored, and a number may be rounded.
func TestExperimentsDocMatchesGolden(t *testing.T) {
	golden := goldenTables(t)
	doc, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, tab := range docTables(string(doc)) {
		g, ok := golden[strings.Join(tab[0].cells, " | ")]
		if !ok {
			continue
		}
		found[g.section] = true
		for _, row := range tab[1:] {
			where := fmt.Sprintf("%s:%d (golden %s)", experimentsDoc, row.line, g.section)
			want, ok := g.rows[row.cells[0]]
			if !ok {
				t.Errorf("%s: no golden row %q", where, row.cells[0])
				continue
			}
			if len(row.cells) != len(want) {
				t.Errorf("%s: %d cells, golden row has %d", where, len(row.cells), len(want))
				continue
			}
			for j := 1; j < len(want); j++ {
				if !cellMatches(row.cells[j], want[j]) {
					t.Errorf("%s: %q column %q reads %q, golden %q",
						where, row.cells[0], tab[0].cells[j], row.cells[j], want[j])
				}
			}
		}
	}
	for _, name := range []string{"hops", "baseline", "wc", "faults", "traffic", "allreduce", "msglib"} {
		if !found[name] {
			t.Errorf("%s has no table matching golden section %s", experimentsDoc, name)
		}
	}
}

package experiment

import (
	"fmt"
	"io"
	"math"
	"strings"

	"redbud/internal/stats"
)

// Table is one result table of an experiment: what mifbench prints, what
// BENCH.json records under "results", and what EXPERIMENTS.md shows are
// all this value. Cells are the numbers themselves; Decimals and Unit
// only say how the renderers print them.
type Table struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	// Label heads the row-label column.
	Label   string   `json:"label"`
	Columns []Column `json:"columns"`
	Rows    []Row    `json:"rows"`
	// Notes are printed under the table: the paper's reported values
	// ("paper: …") or a one-line reading of an extension experiment.
	Notes []string `json:"notes,omitempty"`
}

// Column describes one numeric column.
type Column struct {
	Name     string `json:"name"`
	Unit     string `json:"unit,omitempty"`
	Decimals int    `json:"decimals,omitempty"`
	// Signed prints an explicit sign: the column is a relative change.
	Signed bool `json:"signed,omitempty"`
}

// Row is one labelled row; Values parallels the table's Columns.
type Row struct {
	Label  string    `json:"label"`
	Values []float64 `json:"values"`
}

func mbps(name string) Column  { return Column{Name: name, Unit: "MB/s", Decimals: 1} }
func count(name string) Column { return Column{Name: name} }
func gain(name string) Column  { return Column{Name: name, Unit: "%", Signed: true} }
func percent(name string, decimals int) Column {
	return Column{Name: name, Unit: "%", Decimals: decimals}
}

func (t *Table) add(label string, values ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Values: values})
}

// Check reports the first malformed cell as "table/row/column": a row
// whose width differs from the header, a repeated row label or column
// name (cells are addressed by them), or a value that is not finite —
// which JSON cannot carry and a ratio of simulated quantities can be.
func (t Table) Check() error {
	cols := make(map[string]bool, len(t.Columns))
	for _, c := range t.Columns {
		if cols[c.Name] {
			return fmt.Errorf("result %s: column %q declared twice", t.ID, c.Name)
		}
		cols[c.Name] = true
	}
	rows := make(map[string]bool, len(t.Rows))
	for _, r := range t.Rows {
		if rows[r.Label] {
			return fmt.Errorf("result %s/%s: row recorded twice", t.ID, r.Label)
		}
		rows[r.Label] = true
		if len(r.Values) != len(t.Columns) {
			return fmt.Errorf("result %s/%s: %d values for %d columns", t.ID, r.Label, len(r.Values), len(t.Columns))
		}
		for i, v := range r.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("result %s/%s/%s: non-finite value %v", t.ID, r.Label, t.Columns[i].Name, v)
			}
		}
	}
	return nil
}

// format prints one cell the way both renderers show it.
func (c Column) format(v float64) string {
	verb := "%.*f"
	if c.Signed {
		verb = "%+.*f"
	}
	s := fmt.Sprintf(verb, c.Decimals, v)
	switch c.Unit {
	case "":
		return s
	case "%":
		return s + "%"
	}
	return s + " " + c.Unit
}

// grid renders the header and every row as strings.
func (t Table) grid() [][]string {
	head := []string{t.Label}
	for _, c := range t.Columns {
		head = append(head, c.Name)
	}
	out := [][]string{head}
	for _, r := range t.Rows {
		line := []string{r.Label}
		for i, v := range r.Values {
			line = append(line, t.Columns[i].format(v))
		}
		out = append(out, line)
	}
	return out
}

// WriteText renders tables for a terminal: a banner, the aligned table
// (labels left, numbers right), then the notes.
func WriteText(w io.Writer, tables []Table) error {
	for _, t := range tables {
		if _, err := fmt.Fprintf(w, "\n=== %s ===\n", t.Title); err != nil {
			return err
		}
		grid := t.grid()
		text := stats.NewTable(grid[0]...)
		for _, line := range grid[1:] {
			text.AddRow(line...)
		}
		if err := text.Render(w); err != nil {
			return err
		}
		for _, n := range t.Notes {
			if _, err := fmt.Fprintln(w, n); err != nil {
				return err
			}
		}
	}
	return nil
}

// Markdown renders tables for EXPERIMENTS.md: a bold caption, a pipe
// table with right-aligned numbers, and the notes as one paragraph.
func Markdown(tables []Table) string {
	var b strings.Builder
	for i, t := range tables {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
		for j, line := range t.grid() {
			b.WriteString("| " + strings.Join(line, " | ") + " |\n")
			if j == 0 {
				b.WriteString("|---|" + strings.Repeat("---:|", len(t.Columns)) + "\n")
			}
		}
		if len(t.Notes) > 0 {
			b.WriteByte('\n')
			for _, n := range t.Notes {
				b.WriteString(strings.TrimSpace(n) + "\n")
			}
		}
	}
	return b.String()
}

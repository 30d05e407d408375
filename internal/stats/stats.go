// Package stats provides the measurement helpers shared by the benchmark
// drivers and tools: streaming distribution summaries (for per-operation
// latencies) and an aligned text-table renderer for reports.
package stats

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// Dist accumulates a distribution of int64 samples (typically simulated
// nanoseconds). The zero value is an empty distribution ready to use.
// Samples are retained exactly, so percentiles are exact; the benchmark
// drivers produce at most a few hundred thousand samples per phase.
type Dist struct {
	values []int64
	sum    int64
	sorted bool
}

// Add records one sample.
func (d *Dist) Add(v int64) {
	d.values = append(d.values, v)
	d.sum += v
	d.sorted = false
}

// Merge folds every sample of o into d, leaving o unchanged. Merging a
// distribution into itself doubles it, which follows from the sample
// semantics. The telemetry registry uses Merge to aggregate per-component
// histograms into layer-wide ones.
func (d *Dist) Merge(o *Dist) {
	if o == nil || len(o.values) == 0 {
		return
	}
	d.values = append(d.values, o.values...)
	d.sum += o.sum
	d.sorted = false
}

// Clone returns a deep copy of the distribution: mutations of either side
// never affect the other.
func (d *Dist) Clone() Dist {
	out := Dist{sum: d.sum, sorted: d.sorted}
	if len(d.values) > 0 {
		out.values = append(make([]int64, 0, len(d.values)), d.values...)
	}
	return out
}

// Count returns the number of samples.
func (d *Dist) Count() int { return len(d.values) }

// Sum returns the sample total.
func (d *Dist) Sum() int64 { return d.sum }

// Mean returns the arithmetic mean, or 0 for an empty distribution.
func (d *Dist) Mean() float64 {
	if len(d.values) == 0 {
		return 0
	}
	return float64(d.sum) / float64(len(d.values))
}

// Min returns the smallest sample, or 0 when empty.
func (d *Dist) Min() int64 {
	d.ensureSorted()
	if len(d.values) == 0 {
		return 0
	}
	return d.values[0]
}

// Max returns the largest sample, or 0 when empty.
func (d *Dist) Max() int64 {
	d.ensureSorted()
	if len(d.values) == 0 {
		return 0
	}
	return d.values[len(d.values)-1]
}

// Percentile returns the p-th percentile (0 < p <= 100) using the
// nearest-rank method, or 0 when empty. It panics on an out-of-range p:
// the callers are report code where that is a bug.
func (d *Dist) Percentile(p float64) int64 {
	if p <= 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %g out of (0,100]", p))
	}
	if len(d.values) == 0 {
		return 0
	}
	d.ensureSorted()
	rank := int(math.Ceil(p / 100 * float64(len(d.values))))
	if rank < 1 {
		rank = 1
	}
	return d.values[rank-1]
}

// ensureSorted sorts the retained samples once per mutation burst.
func (d *Dist) ensureSorted() {
	if !d.sorted {
		slices.Sort(d.values)
		d.sorted = true
	}
}

// Table renders aligned text tables for benchmark reports.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable builds a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends one row; short rows are padded with empty cells, long
// rows panic (a report bug).
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.headers) {
		panic(fmt.Sprintf("stats: row of %d cells exceeds %d columns", len(cells), len(t.headers)))
	}
	row := make([]string, len(t.headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted cells: each argument is rendered with
// %v.
func (t *Table) AddRowf(cells ...interface{}) {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = fmt.Sprint(c)
	}
	t.AddRow(out...)
}

// Render writes the table: headers, a rule, and the rows, each column
// padded to its widest cell. Numeric-looking cells are right-aligned.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if isNumeric(c) {
				parts[i] = fmt.Sprintf("%*s", widths[i], c)
			} else {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			}
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.headers)); err != nil {
		return err
	}
	rule := make([]string, len(t.headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, strings.Join(rule, "  ")); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// isNumeric reports whether a cell reads as a number (with optional
// sign, decimals, percent, or unit suffix starting with a space).
func isNumeric(s string) bool {
	if s == "" {
		return false
	}
	if i := strings.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	s = strings.TrimSuffix(s, "%")
	dot := false
	for i, r := range s {
		switch {
		case r >= '0' && r <= '9':
		case (r == '-' || r == '+') && i == 0:
		case r == '.' && !dot:
			dot = true
		default:
			return false
		}
	}
	return true
}

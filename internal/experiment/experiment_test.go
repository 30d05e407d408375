package experiment

import (
	"math"
	"strings"
	"testing"
)

// handBuilt has one column of each kind the catalogue uses: an integer,
// a one-decimal value with a unit, a signed percentage, and a
// two-decimal value.
func handBuilt() Table {
	t := Table{
		ID: "demo", Title: "Demo: a hand-built table", Label: "streams",
		Columns: []Column{count("extents"), mbps("read"), gain("gain"), {Name: "elapsed", Unit: "s", Decimals: 2}},
		Notes:   []string{"paper: first line;", "       second line"},
	}
	t.add("32", 16384, 49.84, 225.4, 6.694)
	t.add("aged to fresh", 5, 1351.25, -12.49, 61.68)
	return t
}

func TestRenderGolden(t *testing.T) {
	var text strings.Builder
	if err := WriteText(&text, []Table{handBuilt()}); err != nil {
		t.Fatal(err)
	}
	const wantText = `
=== Demo: a hand-built table ===
streams        extents  read         gain   elapsed
-------------  -------  -----------  -----  -------
           32    16384    49.8 MB/s  +225%   6.69 s
aged to fresh        5  1351.2 MB/s   -12%  61.68 s
paper: first line;
       second line
`
	if text.String() != wantText {
		t.Errorf("text renderer:\n%s\nwant:\n%s", text.String(), wantText)
	}
	const wantMarkdown = `**Demo: a hand-built table**

| streams | extents | read | gain | elapsed |
|---|---:|---:|---:|---:|
| 32 | 16384 | 49.8 MB/s | +225% | 6.69 s |
| aged to fresh | 5 | 1351.2 MB/s | -12% | 61.68 s |

paper: first line;
second line
`
	if got := Markdown([]Table{handBuilt()}); got != wantMarkdown {
		t.Errorf("markdown renderer:\n%s\nwant:\n%s", got, wantMarkdown)
	}
}

// TestRunRejectsNonFiniteCell: a ratio over a zero base must fail the run
// naming table/row/column, not surface as a json.Marshal error after the
// last experiment.
func TestRunRejectsNonFiniteCell(t *testing.T) {
	for _, tc := range []struct {
		name string
		fill func(*Table)
		want string
	}{
		{"finite", func(t *Table) { t.add("32", 1, 2) }, ""},
		{"+Inf", func(t *Table) { t.add("32", 1, relGain(5, 0)) }, "result demo/32/gain: non-finite value +Inf"},
		{"NaN", func(t *Table) { t.add("32", 1, 2); t.add("48", math.NaN(), 2) }, "result demo/48/extents: non-finite value NaN"},
		{"short row", func(t *Table) { t.add("32", 1) }, "result demo/32: 1 values for 2 columns"},
		{"repeated row", func(t *Table) { t.add("32", 1, 2); t.add("32", 1, 2) }, "result demo/32: row recorded twice"},
	} {
		e := Experiment{
			Name:   "demo",
			Tables: []Table{{ID: "demo", Columns: []Column{count("extents"), gain("gain")}}},
			run:    func(_ Env, t []Table) error { tc.fill(&t[0]); return nil },
		}
		tables, err := e.Run(Env{Scale: 1})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if len(e.Tables[0].Rows) != 0 {
			t.Errorf("%s: Run filled the catalogue's declaration", tc.name)
		}
		if tc.want == "" && len(tables[0].Rows) != 1 {
			t.Errorf("%s: rows = %+v", tc.name, tables[0].Rows)
		}
	}
}

func TestRewrite(t *testing.T) {
	const doc = `# title
hand-written intro
<!-- begin generated: fig6a -->
stale
<!-- end generated: fig6a -->
hand-written diagnosis
<!-- begin generated: fig7 -->
kept
<!-- end generated: fig7 -->
`
	blocks := map[string]string{"fig6a": "fresh\n", "fig7": "kept\n"}
	out, changed, err := Rewrite(doc, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.Replace(doc, "stale", "fresh", 1); out != want {
		t.Errorf("rewrite:\n%s\nwant:\n%s", out, want)
	}
	if len(changed) != 1 || changed[0] != "fig6a" {
		t.Errorf("changed = %v, want [fig6a]", changed)
	}
	if again, changed, err := Rewrite(out, blocks); err != nil || again != out || len(changed) != 0 {
		t.Errorf("rewrite is not a fixed point: changed %v, err %v", changed, err)
	}
	for _, tc := range []struct {
		name, doc string
		blocks    map[string]string
		want      string
	}{
		{"experiment without a block", doc, map[string]string{"fig6a": "", "fig7": "", "fig9": ""}, `no generated block (begin and end marker) for ["fig9"]`},
		{"block without an experiment", doc, map[string]string{"fig6a": ""}, `generated block "fig7": the snapshot records no such experiment`},
		{"no end marker", "<!-- begin generated: fig6a -->\nbody\n", map[string]string{"fig6a": ""}, `no generated block (begin and end marker) for ["fig6a"]`},
		{"crossed markers", strings.Replace(doc, "end generated: fig6a", "end generated: fig7", 1), blocks, `generated block "fig6a" ends at the marker of "fig7"`},
		{"block twice", doc + "<!-- begin generated: fig7 -->\n<!-- end generated: fig7 -->\n", blocks, `generated block "fig7" appears twice`},
	} {
		if _, _, err := Rewrite(tc.doc, tc.blocks); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestJudge drives the scoreboard on a hand-built Figure 9 table: the
// verdict follows the cell, and a table, column or row the shape reads
// but the record lacks is an error rather than a verdict.
func TestJudge(t *testing.T) {
	create := func(embeddedAt80 float64) []Table {
		c := fig9Table("fig9-create", "create")
		c.add("normal (Redbud)", 2934, 2828, 3378, 2440)
		c.add("lustre-like", 2934, 2828, 3378, 2440)
		c.add("embedded (MiF)", 4954, 6041, 5153, embeddedAt80)
		d := fig9Table("fig9-delete", "delete")
		d.add("embedded (MiF)", 5148, 6384, 5389, 4975)
		return []Table{c, d}
	}
	verdictOfDrop := func(tables []Table) Verdict {
		t.Helper()
		judged, err := Judge("fig9", tables)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range judged {
			if strings.Contains(j.Shape.Claim, "drops by the paper's 43%") {
				return j.Verdict
			}
		}
		t.Fatal("fig9 has no creation-drop shape")
		return ""
	}
	for _, tc := range []struct {
		at80 float64
		want Verdict
	}{{4595, NotReproduced}, {3700, Partial}, {2800, Reproduced}} {
		if got := verdictOfDrop(create(tc.at80)); got != tc.want {
			t.Errorf("embedded create %v at 80%%: verdict %s, want %s", tc.at80, got, tc.want)
		}
	}
	tables := create(4595)
	if _, err := Judge("fig9", tables[:1]); err == nil || !strings.Contains(err.Error(), `"fig9-delete"`) {
		t.Errorf("missing table: err = %v", err)
	}
	tables[0].Rows = tables[0].Rows[:2]
	if _, err := Judge("fig9", tables); err == nil || !strings.Contains(err.Error(), `result fig9-create has no row "embedded (MiF)"`) {
		t.Errorf("missing row: err = %v", err)
	}
	tables = create(4595)
	tables[0].Columns[3].Name = "90%"
	if _, err := Judge("fig9", tables); err == nil || !strings.Contains(err.Error(), `result fig9-create has no column "80%"`) {
		t.Errorf("missing column: err = %v", err)
	}
}

package experiment

import (
	"fmt"
	"math"
	"strings"
)

// Verdict is how far a recorded table reproduces one of the paper's
// reported shapes.
type Verdict string

const (
	Reproduced    Verdict = "✔"
	Partial       Verdict = "◐"
	NotReproduced Verdict = "✘"
)

// Shape is one claim of the paper's evaluation as a predicate over a
// recorded table: who wins, by roughly what factor, where a crossover
// falls. Every threshold is stated in its eval.
type Shape struct {
	Experiment string
	// Table and Columns name what eval reads, so the catalogue test can
	// check they exist without running anything.
	Table   string
	Columns []string
	Claim   string
	// Paper is the value the paper reports for the claim.
	Paper string
	// eval returns the verdict and the measured value it rests on.
	eval func(c *cells) (Verdict, string)
}

// Judgement is one evaluated shape.
type Judgement struct {
	Shape    Shape
	Verdict  Verdict
	Measured string
}

// Line renders the judgement as an EXPERIMENTS.md verdict line.
func (j Judgement) Line() string {
	return fmt.Sprintf("- %s %s: %s (paper: %s).", j.Verdict, j.Shape.Claim, j.Measured, j.Shape.Paper)
}

// Judge evaluates the named experiment's shapes over its recorded tables.
// A table, column or row a shape reads but the record lacks is an error,
// not a verdict.
func Judge(experiment string, tables []Table) ([]Judgement, error) {
	var out []Judgement
	for _, s := range Shapes {
		if s.Experiment != experiment {
			continue
		}
		c := &cells{}
		for i := range tables {
			if tables[i].ID == s.Table {
				c.t = &tables[i]
			}
		}
		if c.t == nil || len(c.t.Rows) == 0 {
			return nil, fmt.Errorf("shape %q: no rows of result table %q recorded for %s", s.Claim, s.Table, experiment)
		}
		for _, col := range s.Columns {
			c.col(col)
		}
		v, measured := s.eval(c)
		if c.err != nil {
			return nil, fmt.Errorf("shape %q: %w", s.Claim, c.err)
		}
		out = append(out, Judgement{Shape: s, Verdict: v, Measured: measured})
	}
	return out, nil
}

// cells reads one table by row label and column name, remembering the
// first miss so predicates stay free of error plumbing.
type cells struct {
	t   *Table
	err error
}

func (c *cells) miss(what string) float64 {
	if c.err == nil {
		c.err = fmt.Errorf("result %s has no %s", c.t.ID, what)
	}
	return math.NaN()
}

// col returns a column top to bottom.
func (c *cells) col(name string) []float64 {
	for i, col := range c.t.Columns {
		if col.Name == name {
			out := make([]float64, len(c.t.Rows))
			for j, r := range c.t.Rows {
				out[j] = r.Values[i]
			}
			return out
		}
	}
	c.miss(fmt.Sprintf("column %q", name))
	return make([]float64, len(c.t.Rows))
}

func (c *cells) at(row, col string) float64 {
	vals := c.col(col)
	for j, r := range c.t.Rows {
		if r.Label == row {
			return vals[j]
		}
	}
	return c.miss(fmt.Sprintf("row %q", row))
}

// grade is the three-way verdict: the full claim, else its weaker half.
func grade(full, partial bool) Verdict {
	switch {
	case full:
		return Reproduced
	case partial:
		return Partial
	}
	return NotReproduced
}

// reaches judges a magnitude the paper reports as something to attain:
// reproduced at the paper's value, partial from half of it.
func reaches(v, paper float64) Verdict { return grade(v >= paper, v >= paper/2) }

// near judges a magnitude against the paper's range [lo, hi]: reproduced
// within a factor of two of it, partial while the direction is right.
func near(vals []float64, lo, hi float64) Verdict {
	within, positive := true, true
	for _, v := range vals {
		within = within && v >= lo/2 && v <= 2*hi
		positive = positive && v > 0
	}
	return grade(within, positive)
}

// every reports whether ok holds at each index of a column.
func every(n int, ok func(i int) bool) bool {
	for i := 0; i < n; i++ {
		if !ok(i) {
			return false
		}
	}
	return true
}

func minmax(vals []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

// join formats each value with verb and joins them with " / ".
func join(verb string, vals ...float64) string {
	s := make([]string, len(vals))
	for i, v := range vals {
		s[i] = fmt.Sprintf(verb, v)
	}
	return strings.Join(s, " / ")
}

// Shapes is the scoreboard: the paper-reported shapes the experiments
// must reproduce, in EXPERIMENTS.md order.
var Shapes = []Shape{
	{Experiment: "fig6a", Table: "fig6a", Columns: []string{"reservation", "on-demand", "od/res gain"},
		Claim: "on-demand beats reservation at every stream count", Paper: "+17% / +27% / +48% at 32/48/64",
		eval: func(c *cells) (Verdict, string) {
			res, od := c.col("reservation"), c.col("on-demand")
			wins := every(len(od), func(i int) bool { return od[i] > res[i] })
			return grade(wins, false), join("%+.0f%%", c.col("od/res gain")...)
		}},
	{Experiment: "fig6a", Table: "fig6a", Columns: []string{"reservation", "static", "on-demand"},
		Claim: "static (fallocate) is the upper bound and on-demand sits between it and reservation", Paper: "static 2–17% above on-demand",
		eval: func(c *cells) (Verdict, string) {
			res, st, od := c.col("reservation"), c.col("static"), c.col("on-demand")
			above := make([]float64, len(od))
			for i := range od {
				above[i] = relGain(st[i], od[i])
			}
			between := every(len(od), func(i int) bool { return st[i] > od[i] && od[i] > res[i] })
			return grade(between, false), "static above on-demand by " + join("%.0f%%", above...)
		}},
	{Experiment: "fig6a", Table: "fig6a", Columns: []string{"od/res gain"},
		Claim: "the on-demand gain is of the paper's magnitude (within 2× of 17–48%)", Paper: "17–48%",
		eval: func(c *cells) (Verdict, string) {
			gains := c.col("od/res gain")
			return near(gains, 17, 48), join("%+.0f%%", gains...)
		}},
	{Experiment: "fig6a", Table: "fig6a", Columns: []string{"od/res gain"},
		Claim: "the gain grows monotonically with the stream count (partial: on-demand wins throughout but the gain does not grow)", Paper: "17% → 27% → 48%",
		eval: func(c *cells) (Verdict, string) {
			g := c.col("od/res gain")
			grows := every(len(g), func(i int) bool { return i == 0 || g[i] > g[i-1] })
			wins := every(len(g), func(i int) bool { return g[i] > 0 })
			return grade(grows && wins, wins), strings.ReplaceAll(join("%+.0f%%", g...), " / ", " → ")
		}},

	{Experiment: "fig6b", Table: "fig6b", Columns: []string{"reservation", "on-demand"},
		Claim: "small allocation sizes leave reservation far behind (under half of on-demand at the smallest) and it recovers as the size grows", Paper: "qualitative",
		eval: func(c *cells) (Verdict, string) {
			res, od := c.col("reservation"), c.col("on-demand")
			grows := every(len(res), func(i int) bool { return i == 0 || res[i] > res[i-1] })
			behind := res[0] < od[0]/2
			return grade(grows && behind, grows || behind),
				fmt.Sprintf("reservation %.1f → %.1f MB/s from the smallest to the largest size, %.0f%% of on-demand at the smallest", res[0], res[len(res)-1], 100*res[0]/od[0])
		}},
	{Experiment: "fig6b", Table: "fig6b", Columns: []string{"static", "on-demand"},
		Claim: "on-demand is insensitive to the knob (≤10% spread) and tracks static (≥ two thirds of it)", Paper: "qualitative",
		eval: func(c *cells) (Verdict, string) {
			st, od := c.col("static"), c.col("on-demand")
			lo, hi := minmax(od)
			flat := hi <= 1.1*lo
			share := make([]float64, len(od))
			for i := range od {
				share[i] = 100 * od[i] / st[i]
			}
			sLo, sHi := minmax(share)
			tracks := sLo >= 100*2.0/3
			return grade(flat && tracks, flat || tracks),
				fmt.Sprintf("on-demand spread %.0f%%, %.0f–%.0f%% of static", 100*(hi/lo-1), sLo, sHi)
		}},

	{Experiment: "fig7", Table: "fig7", Columns: []string{"gain"},
		Claim: "on-demand wins both non-collective runs and the IOR gain is smaller than BTIO's", Paper: "BTIO +19%, IOR smaller",
		eval: func(c *cells) (Verdict, string) {
			ior, btio := c.at("IOR non-collective", "gain"), c.at("BTIO non-collective", "gain")
			wins := ior > 0 && btio > 0
			return grade(wins && ior < btio, wins), fmt.Sprintf("IOR %+.0f%%, BTIO %+.0f%%", ior, btio)
		}},
	{Experiment: "fig7", Table: "fig7", Columns: []string{"reservation", "on-demand", "gain"},
		Claim: "collective I/O is above non-collective for both apps under both policies and removes the on-demand advantage", Paper: "collective far above; on-demand \"disappointed\" there",
		eval: func(c *cells) (Verdict, string) {
			above, shrinks := true, true
			var ratios, gains []float64
			for _, app := range []string{"IOR", "BTIO"} {
				for _, col := range []string{"reservation", "on-demand"} {
					r := c.at(app+" collective", col) / c.at(app+" non-collective", col)
					above = above && r > 1
					ratios = append(ratios, r)
				}
				g := c.at(app+" collective", "gain")
				shrinks = shrinks && g < c.at(app+" non-collective", "gain")
				gains = append(gains, g)
			}
			lo, hi := minmax(ratios)
			return grade(above && shrinks, above || shrinks),
				fmt.Sprintf("collective %.1f–%.1f× non-collective; collective gain %s", lo, hi, join("%+.0f%%", gains...))
		}},
	{Experiment: "fig7", Table: "fig7", Columns: []string{"gain"},
		Claim: "the BTIO non-collective gain is of the paper's magnitude (within 2× of +19%)", Paper: "+19%",
		eval: func(c *cells) (Verdict, string) {
			g := c.at("BTIO non-collective", "gain")
			return near([]float64{g}, 19, 19), fmt.Sprintf("%+.0f%%", g)
		}},

	{Experiment: "table1", Table: "table1", Columns: []string{"segments"},
		Claim: "segments order vanilla ≥ reservation ≫ on-demand, on-demand at least 5× below reservation", Paper: "5–10× fewer than reservation",
		eval: func(c *cells) (Verdict, string) {
			ordered, cut := true, true
			var ratios []float64
			for _, app := range []string{"IOR", "BTIO"} {
				v, r, o := c.at("vanilla "+app, "segments"), c.at("reservation "+app, "segments"), c.at("on-demand "+app, "segments")
				ordered = ordered && v >= r && r > o
				cut = cut && r >= 5*o
				ratios = append(ratios, r/o)
			}
			return grade(ordered && cut, ordered), join("%.1f×", ratios...) + " fewer than reservation (IOR / BTIO)"
		}},
	{Experiment: "table1", Table: "table1", Columns: []string{"MDS CPU"},
		Claim: "MDS CPU utilization falls with the segment count", Paper: "7%/10% → 6%/8% → 1.1%/1.0%",
		eval: func(c *cells) (Verdict, string) {
			falls := true
			var parts []string
			for _, app := range []string{"IOR", "BTIO"} {
				v, r, o := c.at("vanilla "+app, "MDS CPU"), c.at("reservation "+app, "MDS CPU"), c.at("on-demand "+app, "MDS CPU")
				falls = falls && v >= r && r > o
				parts = append(parts, fmt.Sprintf("%s %.1f%% → %.1f%% → %.1f%%", app, v, r, o))
			}
			return grade(falls, false), strings.Join(parts, ", ")
		}},
	{Experiment: "table1", Table: "table1", Columns: []string{"segments"},
		Claim: "vanilla fragments clearly more than reservation (≥1.3× the segments; partial: no fewer)", Paper: "1.6× (IOR), 1.9× (BTIO)",
		eval: func(c *cells) (Verdict, string) {
			clear, noFewer := true, true
			var ratios []float64
			for _, app := range []string{"IOR", "BTIO"} {
				r := c.at("vanilla "+app, "segments") / c.at("reservation "+app, "segments")
				clear, noFewer = clear && r >= 1.3, noFewer && r >= 1
				ratios = append(ratios, r)
			}
			return grade(clear, noFewer), join("%.2f×", ratios...) + " (IOR / BTIO)"
		}},

	{Experiment: "fig8", Table: "fig8", Columns: []string{"vs normal"},
		Claim: "create throughput improves within the paper's range (23% up to 170%, +10% slack; partial: above it)", Paper: "23–170%",
		eval: func(c *cells) (Verdict, string) {
			g := c.at("create", "vs normal")
			return grade(g >= 23 && g <= 187, g > 187), fmt.Sprintf("%+.0f%%", g)
		}},
	{Experiment: "fig8", Table: "fig8", Columns: []string{"vs normal"},
		Claim: "delete improves (≥23%) but less than create", Paper: "deletion's reduction the smallest",
		eval: func(c *cells) (Verdict, string) {
			cr, del := c.at("create", "vs normal"), c.at("delete", "vs normal")
			return grade(del >= 23 && del < cr, del > 0), fmt.Sprintf("delete %+.0f%% against create %+.0f%%", del, cr)
		}},
	{Experiment: "fig8", Table: "fig8-dirsize", Columns: []string{"embedded/normal req"},
		Claim: "readdir-stat disk accesses collapse (under 10% of normal's) and the reduction grows with directory size", Paper: "reduction grows with directory size",
		eval: func(c *cells) (Verdict, string) {
			p := c.col("embedded/normal req")
			collapse := every(len(p), func(i int) bool { return p[i] < 10 })
			grows := every(len(p), func(i int) bool { return i == 0 || p[i] < p[i-1] })
			return grade(collapse && grows, collapse || grows),
				strings.ReplaceAll(join("%.1f%%", p...), " / ", " → ") + " of normal's requests as the directory grows"
		}},
	{Experiment: "fig8", Table: "fig8", Columns: []string{"normal", "lustre-like"},
		Claim: "lustre-like is close to Redbud-normal (within 10% on every workload)", Paper: "\"quite close … in all of the workloads\"",
		eval: func(c *cells) (Verdict, string) {
			n, l := c.col("normal"), c.col("lustre-like")
			var worst float64
			for i := range n {
				worst = math.Max(worst, math.Abs(relGain(l[i], n[i])))
			}
			return grade(worst <= 10, false), fmt.Sprintf("largest difference %.1f%%", worst)
		}},
	{Experiment: "fig8", Table: "fig8", Columns: []string{"vs normal"},
		Claim: "utime improves by the paper's lower bound (≥23%; partial from half of it)", Paper: "≥23%",
		eval: func(c *cells) (Verdict, string) {
			g := c.at("utime", "vs normal")
			return reaches(g, 23), fmt.Sprintf("%+.0f%%", g)
		}},

	{Experiment: "fig9", Table: "fig9-create", Columns: []string{"10%", "40%", "60%", "80%"},
		Claim: "embedded creation stays ≥26% above both traditional layouts at every utilization", Paper: ">26%",
		eval: func(c *cells) (Verdict, string) {
			var margins []float64
			for _, u := range []string{"10%", "40%", "60%", "80%"} {
				best := math.Max(c.at("normal (Redbud)", u), c.at("lustre-like", u))
				margins = append(margins, relGain(c.at("embedded (MiF)", u), best))
			}
			lo, hi := minmax(margins)
			return grade(lo >= 26, lo > 0), fmt.Sprintf("%+.0f%% to %+.0f%%", lo, hi)
		}},
	{Experiment: "fig9", Table: "fig9-delete", Columns: []string{"10%", "80%"},
		Claim: "embedded deletion is not severely compromised by aging (drops under 20% from 10% to 80% utilization; partial: under 43%)", Paper: "\"not severely compromised\"",
		eval: func(c *cells) (Verdict, string) {
			drop := -relGain(c.at("embedded (MiF)", "80%"), c.at("embedded (MiF)", "10%"))
			return grade(drop < 20, drop < 43), fmt.Sprintf("%.0f%% drop", drop)
		}},
	{Experiment: "fig9", Table: "fig9-create", Columns: []string{"10%", "80%"},
		Claim: "embedded creation drops by the paper's 43% at 80% utilization (partial from half of it)", Paper: "−43%",
		eval: func(c *cells) (Verdict, string) {
			drop := -relGain(c.at("embedded (MiF)", "80%"), c.at("embedded (MiF)", "10%"))
			return reaches(drop, 43), fmt.Sprintf("%.0f%% drop from the 10%% point", drop)
		}},
	{Experiment: "fig9", Table: "fig9-create", Columns: []string{"10%", "40%", "60%", "80%"},
		Claim: "lustre-like (Htree) creation is above Redbud-normal at every utilization (partial: at some)", Paper: "Lustre above Redbud-normal",
		eval: func(c *cells) (Verdict, string) {
			above := 0
			for _, u := range []string{"10%", "40%", "60%", "80%"} {
				if c.at("lustre-like", u) > c.at("normal (Redbud)", u) {
					above++
				}
			}
			return grade(above == 4, above > 0), fmt.Sprintf("above at %d of 4 utilizations", above)
		}},

	{Experiment: "fig10", Table: "fig10", Columns: []string{"time reduction"},
		Claim: "file-intensive programs (PostMark, tar, make-clean) improve and the CPU-bound make improves least", Paper: "4–13% against ~4%",
		eval: func(c *cells) (Verdict, string) {
			mk := c.at("make", "time reduction")
			fileApps := []float64{c.at("PostMark", "time reduction"), c.at("tar", "time reduction"), c.at("make-clean", "time reduction")}
			lo, _ := minmax(fileApps)
			return grade(lo > 0 && mk < lo, lo > 0), fmt.Sprintf("%s against make %.1f%%", join("%.1f%%", fileApps...), mk)
		}},
	{Experiment: "fig10", Table: "fig10", Columns: []string{"time reduction"},
		Claim: "the reductions are of the paper's magnitude (within 2× of 4–13%, and of ~4% for make)", Paper: "4–13%, ~4% for make",
		eval: func(c *cells) (Verdict, string) {
			mk := c.at("make", "time reduction")
			fileApps := []float64{c.at("PostMark", "time reduction"), c.at("tar", "time reduction"), c.at("make-clean", "time reduction")}
			within := near(fileApps, 4, 13) == Reproduced && near([]float64{mk}, 4, 4) == Reproduced
			lo, hi := minmax(fileApps)
			return grade(within, lo > 0 && mk > 0), fmt.Sprintf("file-intensive up to %.1f%%, make %.1f%%", hi, mk)
		}},

	{Experiment: "defrag", Table: "defrag", Columns: []string{"recovered", "aged extents", "defragged extents"},
		Claim: "defrag recovers the fresh throughput under vanilla (≥95%), never adds extents, and MiF leaves little to repair (under a tenth of vanilla's aged extents)", Paper: "not in the paper; its prevention claim measured from the repair side",
		eval: func(c *cells) (Verdict, string) {
			aged, after := c.col("aged extents"), c.col("defragged extents")
			shrinks := every(len(aged), func(i int) bool { return after[i] <= aged[i] })
			rec := c.at("vanilla", "recovered")
			v, m := c.at("vanilla", "aged extents"), c.at("MiF", "aged extents")
			return grade(rec >= 95 && shrinks && m < v/10, rec >= 50 && shrinks),
				fmt.Sprintf("vanilla recovered %.0f%%; aged extents %.0f under MiF against %.0f under vanilla", rec, m, v)
		}},

	{Experiment: "cache", Table: "cache", Columns: []string{"write RPCs"},
		Claim: "write-back aggregation turns the fragmentary RPC stream into few large requests (≥10× fewer write RPCs)", Paper: "not in the paper; merges its Figure 1 pattern before the wire",
		eval: func(c *cells) (Verdict, string) {
			var ratios []float64
			for _, p := range []string{"vanilla", "MiF"} {
				ratios = append(ratios, c.at(p+" off", "write RPCs")/c.at(p+" on", "write RPCs"))
			}
			lo, _ := minmax(ratios)
			return grade(lo >= 10, lo > 1), join("%.0f×", ratios...) + " fewer write RPCs (vanilla / MiF)"
		}},
	{Experiment: "cache", Table: "cache", Columns: []string{"positionings", "pass-1 read RPCs", "pass-2 read RPCs"},
		Claim: "disk positionings drop for both profiles and both re-read passes are served from client memory (zero RPCs)", Paper: "not in the paper",
		eval: func(c *cells) (Verdict, string) {
			drops, memory := true, true
			var parts []string
			for _, p := range []string{"vanilla", "MiF"} {
				off, on := c.at(p+" off", "positionings"), c.at(p+" on", "positionings")
				drops = drops && on < off
				memory = memory && c.at(p+" on", "pass-1 read RPCs") == 0 && c.at(p+" on", "pass-2 read RPCs") == 0
				parts = append(parts, fmt.Sprintf("%s %.0f → %.0f", p, off, on))
			}
			return grade(drops && memory, drops || memory), "positionings " + strings.Join(parts, ", ")
		}},
	{Experiment: "cache", Table: "cache", Columns: []string{"extents"},
		Claim: "the cached arm also fragments less under both profiles", Paper: "not in the paper",
		eval: func(c *cells) (Verdict, string) {
			less := true
			var parts []string
			for _, p := range []string{"vanilla", "MiF"} {
				off, on := c.at(p+" off", "extents"), c.at(p+" on", "extents")
				less = less && on < off
				parts = append(parts, fmt.Sprintf("%s %.0f → %.0f", p, off, on))
			}
			return grade(less, false), "extents " + strings.Join(parts, ", ")
		}},
}

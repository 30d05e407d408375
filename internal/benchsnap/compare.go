package benchsnap

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// Delta is one simulated metric that differs between two snapshots.
type Delta struct {
	Experiment string  `json:"experiment"`
	Metric     string  `json:"metric"`
	Old        float64 `json:"old"`
	New        float64 `json:"new"`
	// Frac is (new-old)/old, or ±1 when old is zero and new is not.
	Frac float64 `json:"frac"`
}

// Result is a full comparison.
type Result struct {
	// Deltas lists every simulated metric whose value, or whose presence,
	// differs — "zero simulated-metric drift" means it is empty.
	Deltas []Delta
	// Missing lists experiments present in only one snapshot.
	Missing []string
	// SimMetrics counts the simulated metrics compared.
	SimMetrics int
}

// Failed reports whether the snapshots differ in anything simulated: a
// metric that moved in either direction, or an experiment on one side only.
func (r Result) Failed() bool { return len(r.Deltas) > 0 || len(r.Missing) > 0 }

// flatten renders one experiment's simulated content as comparable
// key → value pairs. WallNs is left out: WallDeltas reports it.
func flatten(e Experiment) map[string]float64 {
	out := map[string]float64{"sim_ns": float64(e.SimNs)}
	for k, v := range e.Counters {
		out["counter/"+k] = float64(v)
	}
	for _, l := range e.Layers {
		base := "layer/" + l.Layer + "/"
		out[base+"count"] = float64(l.Count)
		out[base+"mean_ns"] = l.MeanNs
		out[base+"p50_ns"] = float64(l.P50Ns)
		out[base+"p95_ns"] = float64(l.P95Ns)
		out[base+"p99_ns"] = float64(l.P99Ns)
		out[base+"max_ns"] = float64(l.MaxNs)
	}
	for _, ev := range e.Events {
		out["event/"+ev.Layer+"/"+ev.Kind] = float64(ev.Count)
	}
	for _, t := range e.Results {
		for _, r := range t.Rows {
			for i, v := range r.Values {
				out["result/"+t.ID+"/"+r.Label+"/"+t.Columns[i].Name] = v
			}
		}
	}
	return out
}

// Compare diffs the simulated content of two snapshots exactly.
// Experiments are matched by name. Snapshots taken at different workload
// scales measure different work and are refused.
func Compare(old, new *Snapshot) (Result, error) {
	if old.Scale != new.Scale {
		return Result{}, fmt.Errorf("snapshots taken at different -scale (%g vs %g)", old.Scale, new.Scale)
	}
	var res Result

	oldExps := make(map[string]Experiment, len(old.Experiments))
	for _, e := range old.Experiments {
		oldExps[e.Name] = e
	}
	newExps := make(map[string]bool, len(new.Experiments))
	for _, e := range new.Experiments {
		newExps[e.Name] = true
		if _, ok := oldExps[e.Name]; !ok {
			res.Missing = append(res.Missing, e.Name+" (new only)")
		}
	}
	for name := range oldExps {
		if !newExps[name] {
			res.Missing = append(res.Missing, name+" (old only)")
		}
	}
	sort.Strings(res.Missing)

	for _, ne := range new.Experiments {
		oe, ok := oldExps[ne.Name]
		if !ok {
			continue
		}
		ov, nv := flatten(oe), flatten(ne)
		keys := make([]string, 0, len(ov))
		for k := range ov {
			keys = append(keys, k)
		}
		for k := range nv {
			if _, ok := ov[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		res.SimMetrics += len(keys)
		for _, k := range keys {
			o, inOld := ov[k]
			n, inNew := nv[k]
			if inOld == inNew && o == n {
				continue
			}
			var frac float64
			switch {
			case o != 0:
				frac = (n - o) / o
			case n > 0:
				frac = 1
			case n < 0:
				frac = -1
			}
			res.Deltas = append(res.Deltas, Delta{Experiment: ne.Name, Metric: k, Old: o, New: n, Frac: frac})
		}
	}
	return res, nil
}

// WallDelta is one experiment's wall-clock movement between two snapshots.
type WallDelta struct {
	Experiment string
	OldNs      int64
	NewNs      int64
	// Speedup is old/new: above 1 the new snapshot is faster.
	Speedup float64
}

// WallDeltas extracts the per-experiment wall-clock deltas for experiments
// present in both snapshots, in the new snapshot's order.
func WallDeltas(old, new *Snapshot) []WallDelta {
	oldExps := make(map[string]Experiment, len(old.Experiments))
	for _, e := range old.Experiments {
		oldExps[e.Name] = e
	}
	var out []WallDelta
	for _, ne := range new.Experiments {
		oe, ok := oldExps[ne.Name]
		if !ok || oe.WallNs <= 0 || ne.WallNs <= 0 {
			continue
		}
		out = append(out, WallDelta{
			Experiment: ne.Name,
			OldNs:      oe.WallNs,
			NewNs:      ne.WallNs,
			Speedup:    float64(oe.WallNs) / float64(ne.WallNs),
		})
	}
	return out
}

// WriteWallTable renders the wall-clock deltas as a table with a total
// row. Wall clock is volatile run to run; the table is a report, not a
// gate.
func WriteWallTable(w io.Writer, deltas []WallDelta) error {
	if len(deltas) == 0 {
		_, err := fmt.Fprintln(w, "wall-clock: no common experiments")
		return err
	}
	if _, err := fmt.Fprintf(w, "wall-clock deltas (volatile, informational):\n%-12s %12s %12s %9s\n",
		"experiment", "old ms", "new ms", "speedup"); err != nil {
		return err
	}
	var oldTotal, newTotal int64
	for _, d := range deltas {
		oldTotal += d.OldNs
		newTotal += d.NewNs
		if _, err := fmt.Fprintf(w, "%-12s %12.1f %12.1f %8.2fx\n",
			d.Experiment, float64(d.OldNs)/1e6, float64(d.NewNs)/1e6, d.Speedup); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-12s %12.1f %12.1f %8.2fx\n",
		"total", float64(oldTotal)/1e6, float64(newTotal)/1e6, float64(oldTotal)/float64(newTotal))
	return err
}

// WriteText renders the comparison: experiments on one side only, then
// the largest drifts, then the summary line.
func (r Result) WriteText(w io.Writer, verbose bool) error {
	for _, m := range r.Missing {
		if _, err := fmt.Fprintf(w, "missing: experiment %s\n", m); err != nil {
			return err
		}
	}
	order := append([]Delta(nil), r.Deltas...)
	sort.SliceStable(order, func(i, j int) bool {
		return math.Abs(order[i].Frac) > math.Abs(order[j].Frac)
	})
	const maxQuiet = 20
	if !verbose && len(order) > maxQuiet {
		order = order[:maxQuiet]
	}
	for _, d := range order {
		// Shortest exact form: counters print as integers, and a result
		// cell that moved in its last digit shows that digit.
		if _, err := fmt.Fprintf(w, "drift      %-10s %-46s %14s -> %14s  %+7.1f%%\n",
			d.Experiment, d.Metric, strconv.FormatFloat(d.Old, 'f', -1, 64), strconv.FormatFloat(d.New, 'f', -1, 64), 100*d.Frac); err != nil {
			return err
		}
	}
	if len(r.Deltas) > len(order) {
		if _, err := fmt.Fprintf(w, "... %d more drifts (use -v to list all)\n", len(r.Deltas)-len(order)); err != nil {
			return err
		}
	}
	drift := "zero simulated-metric drift"
	if len(r.Deltas) > 0 {
		drift = fmt.Sprintf("%d of %d simulated metrics drifted", len(r.Deltas), r.SimMetrics)
	}
	verdict := "ok"
	if r.Failed() {
		verdict = "FAIL"
	}
	_, err := fmt.Fprintf(w, "compare: %s; experiments on one side only: %d; %s\n", drift, len(r.Missing), verdict)
	return err
}

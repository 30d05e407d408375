package experiment

import (
	"fmt"

	"redbud/internal/mdfs"
	"redbud/internal/pfs"
	"redbud/internal/sim"
	"redbud/internal/workload"
)

// The paper's own evaluation (§5): Figures 6–10 and Table I.

var dataPolicies = []pfs.PolicyKind{pfs.PolicyReservation, pfs.PolicyStatic, pfs.PolicyOnDemand}

// metaSystems are the three MDS configurations of Figures 8 and 9.
var metaSystems = []struct {
	label  string
	layout mdfs.Layout
	htree  bool
}{
	{"normal (Redbud)", mdfs.LayoutNormal, false},
	{"lustre-like", mdfs.LayoutNormal, true},
	{"embedded (MiF)", mdfs.LayoutEmbedded, false},
}

// relGain is the relative change from base to v, in percent.
func relGain(v, base float64) float64 { return 100 * (v/base - 1) }

// fig6a is Figure 6(a): phase-2 throughput of the shared-file
// micro-benchmark as the stream count varies, for the reservation, static
// (fallocate) and on-demand preallocation strategies.
var fig6a = Experiment{
	Name:    "fig6a",
	Summary: "micro-benchmark throughput vs stream count (Figure 6a)",
	Tables: []Table{{
		ID: "fig6a", Title: "Figure 6(a): micro-benchmark throughput vs stream count", Label: "streams",
		Columns: []Column{mbps("reservation"), mbps("static"), mbps("on-demand"), gain("od/res gain"),
			count("reservation extents"), count("static extents"), count("on-demand extents")},
		Notes: []string{"paper: on-demand beats reservation by 17%/27%/48% at 32/48/64 procs; static 2-17% above on-demand"},
	}},
	run: func(env Env, t []Table) error {
		for _, clients := range []int{8, 12, 16} {
			mc := workload.DefaultMicroConfig(clients)
			mc.RegionBlocks = env.scaled(mc.RegionBlocks)
			var read, extents [3]float64
			for i, policy := range dataPolicies {
				res, err := workload.RunMicro(env.mount(Fig6FS(policy)), mc)
				if err != nil {
					return err
				}
				read[i], extents[i] = res.ReadMBps, float64(res.Extents)
			}
			t[0].add(fmt.Sprint(clients*4), read[0], read[1], read[2], relGain(read[2], read[0]),
				extents[0], extents[1], extents[2])
		}
		return nil
	},
}

// fig6b is Figure 6(b): the impact of the allocation size at 32 processes.
var fig6b = Experiment{
	Name:    "fig6b",
	Summary: "micro-benchmark throughput vs allocation size (Figure 6b)",
	Tables: []Table{{
		ID: "fig6b", Title: "Figure 6(b): micro-benchmark throughput vs allocation size (32 procs)", Label: "alloc size",
		Columns: []Column{mbps("reservation"), mbps("static"), mbps("on-demand")},
		Notes:   []string{"paper: small allocation sizes leave reservation far behind; on-demand tracks static"},
	}},
	run: func(env Env, t []Table) error {
		for _, reqBlocks := range []int64{1, 2, 4, 8, 16} {
			mc := workload.DefaultMicroConfig(8)
			mc.RegionBlocks = env.scaled(mc.RegionBlocks)
			mc.RequestBlocks = reqBlocks
			var read [3]float64
			for i, policy := range dataPolicies {
				cfg := env.mount(Fig6FS(policy))
				// The reservation window is the "allocation size" knob
				// of this sweep: small windows model allocators that
				// reserve little ahead of the writes.
				cfg.ReservationWindow = reqBlocks * 16
				res, err := workload.RunMicro(cfg, mc)
				if err != nil {
					return err
				}
				read[i] = res.ReadMBps
			}
			t[0].add(fmt.Sprintf("%d KiB", reqBlocks*4), read[:]...)
		}
		return nil
	},
}

// macroRun runs IOR (scaled) or BTIO once on the Figure 7 mount.
func macroRun(env Env, app string, policy pfs.PolicyKind, collective, interference bool) (workload.MacroResult, error) {
	if app == "BTIO" {
		bc := workload.DefaultBTIOConfig(64)
		bc.Collective = collective
		return workload.RunBTIO(env.mount(Fig7FS(policy)), bc)
	}
	ic := workload.DefaultIORConfig(64)
	ic.BlocksPerProc = env.scaled(ic.BlocksPerProc)
	ic.Collective = collective
	ic.Interference = interference
	return workload.RunIOR(env.mount(Fig7FS(policy)), ic)
}

// fig7 is Figure 7: IOR and BTIO under reservation vs on-demand,
// collective and non-collective.
var fig7 = Experiment{
	Name:    "fig7",
	Summary: "IOR and BTIO macro-benchmarks (Figure 7)",
	Tables: []Table{{
		ID: "fig7", Title: "Figure 7: macro-benchmark throughput (16 nodes x 4 cores, 8 disks)", Label: "benchmark",
		Columns: []Column{mbps("reservation"), mbps("on-demand"), gain("gain")},
		Notes: []string{"paper: on-demand above reservation; IOR gain smaller than BTIO (+19% BTIO non-collective);",
			"       collective I/O far above non-collective and shrinks the policy gap"},
	}},
	run: func(env Env, t []Table) error {
		for _, app := range []string{"IOR", "BTIO"} {
			for _, collective := range []bool{false, true} {
				var thr [2]float64
				for i, policy := range []pfs.PolicyKind{pfs.PolicyReservation, pfs.PolicyOnDemand} {
					res, err := macroRun(env, app, policy, collective, false)
					if err != nil {
						return err
					}
					thr[i] = res.Throughput
				}
				label := app + " non-collective"
				if collective {
					label = app + " collective"
				}
				t[0].add(label, thr[0], thr[1], relGain(thr[1], thr[0]))
			}
		}
		return nil
	},
}

// table1 is Table I: segment counts and MDS CPU utilization for vanilla /
// reservation / on-demand on IOR (with interference traffic) and BTIO,
// non-collective.
var table1 = Experiment{
	Name:    "table1",
	Summary: "segment counts and MDS CPU utilization (Table I)",
	Tables: []Table{{
		ID: "table1", Title: "Table I: segments and MDS CPU utilization (non-collective runs)", Label: "mode, app",
		Columns: []Column{count("segments"), percent("MDS CPU", 1)},
		Notes: []string{"paper: Vanilla 2023/1332, Reservation 1242/701, On-demand 231/106 segments;",
			"       CPU 7%/10%, 6%/8%, 1.1%/1.0% — on-demand cuts extents 5-10x vs reservation"},
	}},
	run: func(env Env, t []Table) error {
		for _, policy := range []pfs.PolicyKind{pfs.PolicyVanilla, pfs.PolicyReservation, pfs.PolicyOnDemand} {
			for _, app := range []string{"IOR", "BTIO"} {
				res, err := macroRun(env, app, policy, false, true)
				if err != nil {
					return err
				}
				t[0].add(fmt.Sprintf("%s %s", policy, app), float64(res.Extents), res.MDSCPU)
			}
		}
		return nil
	},
}

// fig8 is Figure 8: Metarates throughput and disk-access counts for the
// create/utime/readdir-stat/delete workloads, one row per workload, and
// the readdir-stat request proportion as the directory grows (the
// directory sizes are the sweep, so that table does not follow -scale).
var fig8 = Experiment{
	Name:    "fig8",
	Summary: "Metarates metadata workloads (Figure 8)",
	Tables: []Table{{
		ID: "fig8", Title: "Figure 8: Metarates metadata workloads (10 clients, 5000 files/dir)", Label: "workload",
		Columns: []Column{
			{Name: "normal", Unit: "ops/s"}, {Name: "lustre-like", Unit: "ops/s"}, {Name: "embedded", Unit: "ops/s"},
			gain("vs normal"), count("normal req"), count("lustre-like req"), count("embedded req")},
		Notes: []string{"paper: embedded improves metadata throughput by 23%-170%; readdir-stat request",
			"       reduction grows with directory size; Redbud-normal is close to Lustre"},
	}, {
		ID: "fig8-dirsize", Title: "Figure 8: readdir-stat disk-request proportion (embedded/normal) vs directory size", Label: "files/dir",
		Columns: []Column{percent("embedded/normal req", 1)},
	}},
	run: func(env Env, t []Table) error {
		var sys [3]workload.MetaratesResult
		for i, s := range metaSystems {
			cfg := workload.DefaultMetaratesConfig(s.layout)
			cfg.FilesPerDir = int(env.scaled(int64(cfg.FilesPerDir)))
			cfg.Htree = s.htree
			cfg.Metrics, cfg.Trace = env.Metrics, env.Trace
			res, err := workload.RunMetarates(cfg)
			if err != nil {
				return err
			}
			sys[i] = res
		}
		phases := func(r workload.MetaratesResult) [4]workload.PhaseResult {
			return [4]workload.PhaseResult{r.Create, r.Utime, r.Readdir, r.Delete}
		}
		n, l, e := phases(sys[0]), phases(sys[1]), phases(sys[2])
		for i, label := range []string{"create", "utime", "readdir-stat", "delete"} {
			t[0].add(label, n[i].OpsPerSec, l[i].OpsPerSec, e[i].OpsPerSec, relGain(e[i].OpsPerSec, n[i].OpsPerSec),
				float64(n[i].DiskRequests), float64(l[i].DiskRequests), float64(e[i].DiskRequests))
		}
		for _, files := range []int{1000, 2500, 5000} {
			cfg := workload.DefaultMetaratesConfig(mdfs.LayoutNormal)
			cfg.Clients = 4
			cfg.FilesPerDir = files
			cfg.Metrics, cfg.Trace = env.Metrics, env.Trace
			normal, err := workload.RunMetarates(cfg)
			if err != nil {
				return err
			}
			cfg.Layout = mdfs.LayoutEmbedded
			embedded, err := workload.RunMetarates(cfg)
			if err != nil {
				return err
			}
			t[1].add(fmt.Sprint(files),
				100*float64(embedded.Readdir.DiskRequests)/float64(normal.Readdir.DiskRequests))
		}
		return nil
	},
}

var fig9Utilizations = []float64{0.1, 0.4, 0.6, 0.8}

func fig9Table(id, op string, notes ...string) Table {
	t := Table{ID: id, Title: "Figure 9: impact of file system aging — " + op + " throughput vs utilization", Label: "system", Notes: notes}
	for _, u := range fig9Utilizations {
		t.Columns = append(t.Columns, Column{Name: fmt.Sprintf("%.0f%%", 100*u), Unit: "ops/s"})
	}
	return t
}

// fig9 is Figure 9: create and delete throughput after churning the MDS
// volume to a target utilization. The aging volume's size is the
// experiment, so -scale is ignored.
var fig9 = Experiment{
	Name:    "fig9",
	Summary: "file system aging impact (Figure 9)",
	Tables: []Table{fig9Table("fig9-create", "create"), fig9Table("fig9-delete", "delete",
		"paper: at 80% capacity embedded creation drops 43%; deletion is not severely",
		"       compromised; embedded stays >26% above the traditional layouts")},
	run: func(env Env, t []Table) error {
		for _, s := range metaSystems {
			var create, del []float64
			for _, u := range fig9Utilizations {
				cfg := workload.DefaultAgingConfig(s.layout, u)
				cfg.Htree = s.htree
				cfg.Metrics, cfg.Trace = env.Metrics, env.Trace
				res, err := workload.RunAging(cfg)
				if err != nil {
					return err
				}
				create, del = append(create, res.CreatePerSec), append(del, res.DeletePerSec)
			}
			t[0].add(s.label, create...)
			t[1].add(s.label, del...)
		}
		return nil
	},
}

// fig10 is Figure 10: PostMark and the kernel-tree application mix,
// execution time under the two directory placements.
var fig10 = Experiment{
	Name:    "fig10",
	Summary: "PostMark and applications (Figure 10)",
	Tables: []Table{{
		ID: "fig10", Title: "Figure 10: PostMark and applications (execution time)", Label: "application",
		Columns: []Column{{Name: "normal", Unit: "s", Decimals: 2}, {Name: "MiF", Unit: "s", Decimals: 2}, percent("time reduction", 1)},
		Notes:   []string{"paper: 4-13% reduction for PostMark/tar/make-clean; ~4% for CPU-bound make"},
	}},
	run: func(env Env, t []Table) error {
		pm := workload.DefaultPostMarkConfig()
		pm.FilesPerClient = int(env.scaled(int64(pm.FilesPerClient)))
		pm.TransactionsPerClient = int(env.scaled(int64(pm.TransactionsPerClient)))
		kt := workload.DefaultKernelTreeConfig()
		kt.Dirs = int(env.scaled(int64(kt.Dirs)))

		pmN, err := workload.RunPostMark(env.mount(pfs.RedbudOrig(4)), pm)
		if err != nil {
			return err
		}
		pmM, err := workload.RunPostMark(env.mount(pfs.MiF(4)), pm)
		if err != nil {
			return err
		}
		ktN, err := workload.RunKernelTree(env.mount(pfs.RedbudOrig(4)), kt)
		if err != nil {
			return err
		}
		ktM, err := workload.RunKernelTree(env.mount(pfs.MiF(4)), kt)
		if err != nil {
			return err
		}
		for _, r := range []struct {
			app         string
			normal, mif sim.Ns
		}{
			{"PostMark", pmN.Elapsed, pmM.Elapsed},
			{"tar", ktN.Tar.Elapsed, ktM.Tar.Elapsed},
			{"make", ktN.Make.Elapsed, ktM.Make.Elapsed},
			{"make-clean", ktN.MakeClean.Elapsed, ktM.MakeClean.Elapsed},
		} {
			t[0].add(r.app, sim.Seconds(r.normal), sim.Seconds(r.mif), 100*(1-float64(r.mif)/float64(r.normal)))
		}
		return nil
	},
}

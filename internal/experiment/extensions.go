package experiment

import (
	"fmt"

	"redbud/internal/pfs"
	"redbud/internal/sim"
	"redbud/internal/workload"
)

// Experiments beyond the paper: the design-knob ablations and the
// defrag, client-cache, failover and crash-sweep extensions.

var readAndExtents = []Column{mbps("read"), count("extents")}

// ablation sweeps the design knobs DESIGN.md §5 calls out.
var ablation = Experiment{
	Name:    "ablation",
	Summary: "design-choice sweeps beyond the paper",
	Tables: []Table{
		{ID: "ablation-window-scale", Title: "Ablation: window scale factor (paper uses 2 or 4)", Label: "scale", Columns: readAndExtents},
		{ID: "ablation-max-prealloc", Title: "Ablation: max_preallocation_size (tunable cap)", Label: "cap", Columns: readAndExtents},
		{ID: "ablation-miss-threshold", Title: "Ablation: miss threshold under a sequential+random stream mix", Label: "threshold", Columns: readAndExtents},
		{ID: "ablation-delayed-alloc", Title: "Ablation: delayed allocation vs on-demand under fsync pressure", Label: "fsync every",
			Columns: []Column{mbps("delayed-alloc"), count("delayed-alloc extents"), mbps("on-demand"), count("on-demand extents")},
			Notes: []string{`paper (§2): delayed allocation "does not fit application with explicit sync`,
				`requests well"; on-demand improves placement "without any runtime assumption"`}},
		{ID: "ablation-elevator", Title: "Ablation: elevator queue window (reservation layout reads)", Label: "window", Columns: []Column{mbps("read")}},
	},
	run: func(env Env, t []Table) error {
		mc := workload.DefaultMicroConfig(16)
		mc.RegionBlocks = env.scaled(mc.RegionBlocks)
		for _, s := range []int64{2, 4, 8} {
			cfg := env.mount(Fig6FS(pfs.PolicyOnDemand))
			cfg.OnDemand.Scale = s
			res, err := workload.RunMicro(cfg, mc)
			if err != nil {
				return err
			}
			t[0].add(fmt.Sprint(s), res.ReadMBps, float64(res.Extents))
		}
		for _, capBlocks := range []int64{64, 256, 1024, 2048, 8192} {
			cfg := env.mount(Fig6FS(pfs.PolicyOnDemand))
			cfg.OnDemand.MaxPreallocBlocks = capBlocks
			res, err := workload.RunMicro(cfg, mc)
			if err != nil {
				return err
			}
			t[1].add(fmt.Sprintf("%d KiB", capBlocks*4), res.ReadMBps, float64(res.Extents))
		}
		for _, th := range []int{1, 2, 4, 16} {
			cfg := env.mount(Fig6FS(pfs.PolicyOnDemand))
			cfg.OnDemand.MissThreshold = th
			res, err := workload.RunMixedStream(cfg)
			if err != nil {
				return err
			}
			t[2].add(fmt.Sprint(th), res.ReadMBps, float64(res.Extents))
		}
		for _, every := range []int64{0, 64, 16, 4, 1} {
			cfgD := env.mount(Fig6FS(pfs.PolicyVanilla))
			cfgD.OST.DelayedAllocation = true
			extD, mbD, err := workload.RunSyncPressure(cfgD, every)
			if err != nil {
				return err
			}
			extO, mbO, err := workload.RunSyncPressure(env.mount(Fig6FS(pfs.PolicyOnDemand)), every)
			if err != nil {
				return err
			}
			label := fmt.Sprintf("%d reqs", every)
			if every == 0 {
				label = "never"
			}
			t[3].add(label, mbD, float64(extD), mbO, float64(extO))
		}
		for _, depth := range []int{1, 16, 64, 0} {
			cfg := env.mount(Fig6FS(pfs.PolicyReservation))
			cfg.OST.QueueDepth = depth
			res, err := workload.RunMicro(cfg, mc)
			if err != nil {
				return err
			}
			label := fmt.Sprint(depth)
			if depth == 0 {
				label = "unbounded"
			}
			t[4].add(label, res.ReadMBps)
		}
		return nil
	},
}

// fiveDiskProfiles are the two mounts the defrag and cache experiments
// compare: no preallocation (repair) and MiF (prevention).
func fiveDiskProfiles(env Env) []pfs.Config {
	return []pfs.Config{env.mount(pfs.MiF(5).WithPolicy(pfs.PolicyVanilla)), env.mount(pfs.MiF(5))}
}

// defragExp measures online-defragmentation recovery: age a volume with
// interleaved writers, read it sequentially, defragment, read again, and
// compare against a never-aged mount of the same configuration.
var defragExp = Experiment{
	Name:    "defrag",
	Summary: "online-defragmentation recovery after aging",
	Tables: []Table{{
		ID: "defrag", Title: "Defrag: sequential read recovery after aging (aged → defragged → fresh)", Label: "profile",
		Columns: []Column{mbps("aged"), mbps("defragged"), mbps("fresh"), percent("recovered", 0),
			count("aged extents"), count("defragged extents"), count("fresh extents"),
			count("aged positionings"), count("defragged positionings"), {Name: "moved", Unit: "blocks"}},
		Notes: []string{"defrag rewrites each object into one reserved contiguous run; extent counts never increase"},
	}},
	run: func(env Env, t []Table) error {
		cfg := workload.DefaultDefragBenchConfig()
		cfg.FileBlocks = env.scaled(cfg.FileBlocks)
		for _, fsCfg := range fiveDiskProfiles(env) {
			res, err := workload.RunDefragBench(fsCfg, cfg)
			if err != nil {
				return err
			}
			t[0].add(res.Config, res.AgedReadMBps, res.DefraggedReadMBps, res.FreshReadMBps, res.RecoveredPercent,
				float64(res.AgedExtents), float64(res.DefraggedExtents), float64(res.FreshExtents),
				float64(res.AgedPositionings), float64(res.DefraggedPositionings), float64(res.BlocksMoved))
		}
		return nil
	},
}

// cacheExp measures the client-side block cache: the Figure 1 aging
// pattern (interleaved small sequential writers) plus two sequential
// re-read passes, each profile run with the cache off and on over the
// same request sequence. positionings sums head movements over all three
// phases; a re-read at 0 RPCs and 0 MB/s was served from client memory
// (the disks never turned). Each arm measures through its own private
// registry, so -telemetry snapshots are unaffected by this phase.
var cacheExp = Experiment{
	Name:    "cache",
	Summary: "client block cache off vs on (write-back aggregation, re-reads)",
	Tables: []Table{{
		ID: "cache", Title: "Cache: client block cache off vs on (interleaved small writes + re-reads)", Label: "profile, cache",
		Columns: []Column{count("write RPCs"), count("positionings"), count("extents"), mbps("write"),
			count("pass-1 read RPCs"), count("pass-2 read RPCs"), mbps("pass-2 read")},
	}, {
		ID: "cache-internals", Title: "Cache: cache-on internals", Label: "profile",
		Columns: []Column{count("blocks/write-back"), count("hit blocks"), count("miss blocks"), count("evicted blocks"),
			count("readahead issued"), count("readahead used")},
		Notes: []string{"write-back aggregation turns interleaved small writes into few large RPCs; re-read pass 2 is served from client memory"},
	}},
	run: func(env Env, t []Table) error {
		cfg := workload.DefaultCacheBenchConfig()
		cfg.FileBlocks = env.scaled(cfg.FileBlocks)
		for _, fsCfg := range fiveDiskProfiles(env) {
			res, err := workload.RunCacheBench(fsCfg, cfg)
			if err != nil {
				return err
			}
			for _, arm := range []workload.CacheArmResult{res.Off, res.On} {
				state := " off"
				if arm.CacheOn {
					state = " on"
				}
				t[0].add(res.Config+state, float64(arm.WriteRPCs), float64(arm.TotalPositionings()), float64(arm.Extents),
					arm.WriteMBps, float64(arm.Pass1ReadRPCs), float64(arm.Pass2ReadRPCs), arm.Pass2MBps)
			}
			on := res.On.Cache
			var coalesce float64
			if on.Writebacks > 0 {
				coalesce = float64(on.WritebackBlocks) / float64(on.Writebacks)
			}
			t[1].add(res.Config, coalesce, float64(on.HitBlocks), float64(on.MissBlocks), float64(on.EvictedBlocks),
				float64(on.ReadaheadIssued), float64(on.ReadaheadUsed))
		}
		return nil
	},
}

// failoverExp measures object replication under an OST crash: an
// IOR-style write phase over 3-way-replicated files with one server
// blackholed midway, a full read-back while it is still dark, and a
// background re-replication drain. The run fails on any client-visible
// I/O error or if redundancy is not fully restored.
var failoverExp = Experiment{
	Name:    "failover",
	Summary: "OST crash under replication (steering + re-replication)",
	Tables: []Table{{
		ID: "failover", Title: "Failover: OST crash under 3-way replication (steering + re-replication)", Label: "profile",
		Columns: []Column{count("rf"), count("crashed ost"), mbps("write"), mbps("read"), count("failovers"), count("skips"),
			{Name: "repaired", Unit: "blocks"}, count("repairs"), {Name: "t-repair", Unit: "ms", Decimals: 1}},
	}, {
		ID: "failover-repair", Title: "Failover: replica-layer activity", Label: "profile",
		Columns: []Column{count("under-replicated peak"), count("steered reads"), count("fan-out writes"),
			count("repair slices"), count("preempted"), count("throttled")},
		Notes: []string{"writes fan out to all live replicas, reads steer around the dead server, and the repair engine restores rf on the survivors"},
	}},
	run: func(env Env, t []Table) error {
		cfg := workload.DefaultFailoverBenchConfig()
		cfg.FileBlocks = env.scaled(cfg.FileBlocks)
		if cfg.FileBlocks < cfg.RequestBlocks {
			cfg.FileBlocks = cfg.RequestBlocks
		}
		for _, fsCfg := range []pfs.Config{env.mount(pfs.MiF(6)), env.mount(pfs.RedbudOrig(6))} {
			res, err := workload.RunFailoverBench(fsCfg, cfg)
			if err != nil {
				return err
			}
			s := res.Stats
			t[0].add(res.Config, float64(res.RF), float64(cfg.CrashOST), res.WriteMBps, res.ReadMBps,
				float64(s.Failovers), float64(s.SkippedWrites), float64(s.RepairBlocks), float64(s.RepairsDone),
				float64(res.TimeToRedundancyNs)/float64(sim.Millisecond))
			t[1].add(res.Config, float64(res.UnderReplPeak), float64(s.SteeredReads), float64(s.FanoutWrites),
				float64(s.RepairSlices), float64(s.Preempted), float64(s.Throttled))
		}
		return nil
	},
}

// crashSweep arms every registered crash point in turn with each
// applicable power-fail tear mode, kills the mount there, recovers and
// verifies it. It fails unless every run recovers to a consistent state;
// `miffsck sweep` prints the per-run report. The sweep's cost is fixed by
// the registry, so -scale is ignored.
var crashSweep = Experiment{
	Name:    "crashsweep",
	Summary: "power-fail injection at every registered crash point",
	Tables: []Table{{
		ID: "crashsweep", Title: "Crash sweep: power-fail injection at every registered crash point", Label: "sweep",
		Columns: []Column{count("points"), count("runs"), count("failures")},
		Notes:   []string{"every crash point recovered to an fsck-clean, fully replicated state with all acknowledged data readable"},
	}},
	run: func(env Env, t []Table) error {
		cfg := workload.DefaultCrashSweepConfig()
		cfg.Metrics = env.Metrics
		rep, err := workload.RunCrashSweep(cfg)
		if err != nil {
			return err
		}
		if !rep.Passed() {
			return fmt.Errorf("crash sweep failed: baseline %q, %d of %d runs did not recover consistent (miffsck sweep lists them)",
				rep.BaselineErr, rep.Failures(), len(rep.Runs))
		}
		t[0].add("full registry", float64(rep.Points), float64(len(rep.Runs)), float64(rep.Failures()))
		return nil
	},
}

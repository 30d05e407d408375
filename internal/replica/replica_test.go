package replica

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"redbud/internal/alloc"
	"redbud/internal/inode"
	"redbud/internal/ost"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
)

// evenInputs returns n equal-looking live servers.
func evenInputs(n int) []PlaceInput {
	in := make([]PlaceInput, n)
	for i := range in {
		in[i] = PlaceInput{OST: i, FreeBlocks: 10000}
	}
	return in
}

func TestSpreadDistinctOSTsAndStripePrimary(t *testing.T) {
	const n, rf = 6, 3
	sets, err := Spread(rf, n, evenInputs(n))
	if err != nil {
		t.Fatal(err)
	}
	for c, set := range sets {
		if len(set) != rf {
			t.Fatalf("comp %d: got %d replicas, want %d", c, len(set), rf)
		}
		if set[0] != c%n {
			t.Errorf("comp %d: primary %d, want stripe-aligned %d", c, set[0], c%n)
		}
		seen := make(map[int]bool)
		for _, r := range set {
			if seen[r] {
				t.Fatalf("comp %d: replica set %v co-locates on ost%d", c, set, r)
			}
			seen[r] = true
		}
	}
}

func TestSpreadSkipsDownAndPrefersScore(t *testing.T) {
	in := evenInputs(4)
	in[1].Down = true
	in[3].FreeBlocks = 99999 // emptiest server: best secondary
	sets, err := Spread(2, 1, in)
	if err != nil {
		t.Fatal(err)
	}
	set := sets[0]
	for _, r := range set {
		if r == 1 {
			t.Fatalf("set %v uses down ost1", set)
		}
	}
	if set[0] != 0 || set[1] != 3 {
		t.Fatalf("set %v, want primary 0 + best-scoring 3", set)
	}
}

func TestSpreadDegradedAndErrors(t *testing.T) {
	if _, err := Spread(5, 1, evenInputs(4)); err == nil {
		t.Fatal("rf > OSTs must fail")
	}
	in := evenInputs(3)
	in[0].Down = true
	in[1].Down = true
	sets, err := Spread(3, 3, in)
	if err != nil {
		t.Fatal(err)
	}
	for c, set := range sets {
		if len(set) != 1 || set[0] != 2 {
			t.Fatalf("comp %d: degraded set %v, want [2]", c, set)
		}
	}
	in[2].Down = true
	if _, err := Spread(3, 1, in); err == nil {
		t.Fatal("all-down placement must fail")
	}
}

func TestManagerDownAndStaleLifecycle(t *testing.T) {
	m := NewManager(Config{RF: 3}, 4)
	m.Add(1, 0, 10, []int{0, 1, 2})
	if m.UnderReplicated() != 0 {
		t.Fatal("fresh component should be fully replicated")
	}
	m.MarkDown(1)
	if m.UnderReplicated() != 1 {
		t.Fatal("down member must under-replicate the component")
	}
	// A write while ost1 is down skips it and marks the copy stale.
	if _, targets, err := m.WriteTargets(1, 0); err != nil || len(targets) != 2 {
		t.Fatalf("targets %v err %v, want 2 live targets", targets, err)
	}
	m.MarkUp(1)
	if m.UnderReplicated() != 1 {
		t.Fatal("stale copy must stay under-replicated after revive")
	}
	st := m.Stats()
	if st.SkippedWrites != 1 || st.FanoutWrites != 1 || st.OSTDownEvents != 1 {
		t.Fatalf("stats %+v", st)
	}
	// Catch-up repair on the revived member restores full strength.
	jd, ok := m.PlanRepair(evenInputs(4))
	if !ok || jd.Dst != 1 || jd.Replace != ReplaceNone {
		t.Fatalf("plan %+v ok=%v, want catch-up onto ost1", jd, ok)
	}
	m.StartJob(jd, []alloc.Range{{Start: 0, Count: 64}})
	for {
		sl, ok := m.NextSlice(true, 0)
		if !ok {
			break
		}
		m.AdvanceJob(sl.Count)
	}
	done := m.FinishJob()
	if done.SetChanged {
		t.Fatal("catch-up must not change the replica set")
	}
	if m.UnderReplicated() != 0 {
		t.Fatal("repair must restore full replication")
	}
}

func TestSteerReadAvoidsDownAndStale(t *testing.T) {
	m := NewManager(Config{RF: 3}, 4)
	m.Add(7, 2, 11, []int{0, 1, 2})
	load := func(i int) sim.Ns { return sim.Ns(100 - i) } // ost2 least loaded
	r, obj, ok := m.SteerRead(7, 2, nil, load)
	if !ok || r != 2 || obj != 11 {
		t.Fatalf("steered to ost%d obj%d ok=%v, want least-loaded ost2", r, obj, ok)
	}
	m.MarkDown(2)
	m.MarkStale(7, 2, 1)
	if r, _, ok = m.SteerRead(7, 2, nil, load); !ok || r != 0 {
		t.Fatalf("steered to ost%d ok=%v, want only clean live ost0", r, ok)
	}
	m.MarkDown(0)
	if _, _, ok = m.SteerRead(7, 2, nil, load); ok {
		t.Fatal("no clean live replica must report !ok")
	}
}

func TestPlanRepairReplacesDownMember(t *testing.T) {
	m := NewManager(Config{RF: 2}, 4)
	m.Add(1, 0, 5, []int{0, 1})
	m.MarkDown(1)
	in := evenInputs(4)
	in[1].Down = true
	jd, ok := m.PlanRepair(in)
	if !ok {
		t.Fatal("replace repair must be plannable")
	}
	if jd.Src != 0 || jd.Dst == 1 || jd.Replace != 1 {
		t.Fatalf("plan %+v, want src=0 replacing slot 1 with a survivor", jd)
	}
	m.StartJob(jd, []alloc.Range{{Start: 0, Count: 10}})
	if sl, ok := m.NextSlice(true, 0); !ok || sl.Count != 10 {
		t.Fatalf("slice %+v ok=%v", sl, ok)
	}
	m.AdvanceJob(10)
	done := m.FinishJob()
	if !done.SetChanged || contains(done.Replicas, 1) {
		t.Fatalf("done %+v, want changed set without ost1", done)
	}
	if m.UnderReplicated() != 0 {
		t.Fatal("replacement must restore full replication")
	}
}

func TestRepairTokenBucketPacing(t *testing.T) {
	var clock sim.Ns
	m := NewManager(Config{RF: 2, SliceBlocks: 100, RateBlocksPerSec: 100, BurstBlocks: 100}, 2)
	m.SetTimeSource(func() sim.Ns { return clock })
	m.Add(1, 0, 5, []int{0, 1})
	m.MarkStale(1, 0, 1)
	jd, ok := m.PlanRepair(evenInputs(2))
	if !ok {
		t.Fatal("catch-up must be plannable")
	}
	m.StartJob(jd, []alloc.Range{{Start: 0, Count: 300}})
	if _, ok := m.NextSlice(false, 0); ok {
		t.Fatal("empty bucket must throttle")
	}
	clock += sim.Second // refills 100 blocks
	sl, ok := m.NextSlice(false, 0)
	if !ok || sl.Count != 100 {
		t.Fatalf("slice %+v ok=%v, want 100 paced blocks", sl, ok)
	}
	m.AdvanceJob(sl.Count)
	if _, ok := m.NextSlice(false, 0); ok {
		t.Fatal("drained bucket must throttle again")
	}
	if _, ok := m.NextSlice(false, 3); ok {
		t.Fatal("queued foreground requests must preempt")
	}
	if sl, ok := m.NextSlice(true, 3); !ok || sl.Count != 100 {
		t.Fatal("force mode must bypass throttle and preemption")
	}
	st := m.Stats()
	if st.Throttled != 2 || st.Preempted != 1 {
		t.Fatalf("stats %+v, want 2 throttled + 1 preempted", st)
	}
}

func TestRemoveAbortsJobAndForgetsFile(t *testing.T) {
	m := NewManager(Config{RF: 2}, 3)
	m.Add(1, 0, 5, []int{0, 1})
	m.Add(2, 0, 6, []int{1, 2})
	m.MarkStale(1, 0, 1)
	jd, ok := m.PlanRepair(evenInputs(3))
	if !ok || jd.Key.Ino != 1 {
		t.Fatalf("plan %+v ok=%v", jd, ok)
	}
	m.StartJob(jd, []alloc.Range{{Start: 0, Count: 8}})
	m.Remove(1)
	if m.JobActive() {
		t.Fatal("deleting the file must abort its repair")
	}
	if m.Components() != 1 || m.UnderReplicated() != 0 {
		t.Fatalf("components %d under %d", m.Components(), m.UnderReplicated())
	}
}

// TestUnderReplicatedMatchesRecount drives the manager through seeded
// sequences of every call that can change a component's health. After each
// call UnderReplicated must equal a count from scratch over the
// components, and the health events in the attached log must be exactly
// those a reference recounting from scratch after every call would emit.
func TestUnderReplicatedMatchesRecount(t *testing.T) {
	const n, rf, ops = 5, 3, 4000
	for seed := uint64(1); seed <= 3; seed++ {
		m := NewManager(Config{RF: rf, SliceBlocks: 8}, n)
		var tick sim.Ns
		m.SetClock(func() sim.Ns { return tick })
		m.events = telemetry.NewEventLog(1 << 20)
		rng := rand.New(rand.NewPCG(seed, 11))

		var inos []inode.Ino
		comps := map[inode.Ino]int{}
		next := inode.Ino(1)
		pickKey := func() (inode.Ino, int, bool) {
			if len(inos) == 0 {
				return 0, 0, false
			}
			ino := inos[rng.IntN(len(inos))]
			return ino, rng.IntN(comps[ino]), true
		}
		// check runs after every manager call: the count against a recount
		// from scratch, and the reference's event for its transition.
		var want []telemetry.EventRecord
		var refCount int64
		check := func(desc string) {
			var scratch int64
			for _, c := range m.comps {
				if m.cleanLive(c) < rf {
					scratch++
				}
			}
			if got := m.UnderReplicated(); got != scratch {
				t.Fatalf("seed %d at %d, %s: UnderReplicated = %d, recount %d", seed, tick, desc, got, scratch)
			}
			if refCount == 0 && scratch > 0 {
				want = append(want, telemetry.EventRecord{At: tick, Layer: "replica", Kind: "under-replicated",
					Detail: fmt.Sprintf("%d components below rf=%d", scratch, rf)})
			} else if refCount > 0 && scratch == 0 {
				want = append(want, telemetry.EventRecord{At: tick, Layer: "replica", Kind: "redundancy-restored",
					Detail: fmt.Sprintf("all components back at rf=%d", rf)})
			}
			refCount = scratch
			tick++
		}
		remove := func(ino inode.Ino) {
			m.Remove(ino)
			check(fmt.Sprintf("Remove(%d)", ino))
			delete(comps, ino)
			for i, x := range inos {
				if x == ino {
					inos = append(inos[:i], inos[i+1:]...)
					break
				}
			}
		}

		for op := 0; op < ops; op++ {
			switch k := rng.IntN(100); {
			case k < 12:
				ino := next
				next++
				nc := 1 + rng.IntN(3)
				for c := 0; c < nc; c++ {
					set := rng.Perm(n)[:rf]
					if rng.IntN(4) == 0 {
						set = set[:1+rng.IntN(rf)] // a degraded create
					}
					m.Add(ino, c, ost.ObjectID(ino)*8+ost.ObjectID(c), set)
					check(fmt.Sprintf("Add(%d, %d, %v)", ino, c, set))
				}
				inos = append(inos, ino)
				comps[ino] = nc
			case k < 24:
				if len(inos) > 0 {
					remove(inos[rng.IntN(len(inos))])
				}
			case k < 40:
				if ino, c, ok := pickKey(); ok {
					if _, _, err := m.WriteTargets(ino, c); err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("WriteTargets(%d, %d)", ino, c))
				}
			case k < 46:
				if ino, c, ok := pickKey(); ok {
					r := rng.IntN(n)
					m.MarkStale(ino, c, r)
					check(fmt.Sprintf("MarkStale(%d, %d, %d)", ino, c, r))
				}
			case k < 51:
				i := rng.IntN(n)
				m.MarkDown(i)
				check(fmt.Sprintf("MarkDown(%d)", i))
			case k < 60:
				i := rng.IntN(n)
				m.MarkUp(i)
				check(fmt.Sprintf("MarkUp(%d)", i))
			default:
				in := evenInputs(n)
				for i := range in {
					in[i].Down = m.Down(i)
				}
				jd, ok := m.PlanRepair(in)
				if !ok {
					continue
				}
				m.StartJob(jd, []alloc.Range{{Start: 0, Count: 8}})
				m.AdvanceJob(8)
				if rng.IntN(10) == 0 {
					remove(jd.Key.Ino) // deleted mid-repair
				}
				m.FinishJob()
				check(fmt.Sprintf("FinishJob(%+v)", jd))
			}
		}

		var got []telemetry.EventRecord
		for _, e := range m.events.Records() {
			if e.Kind == "under-replicated" || e.Kind == "redundancy-restored" {
				got = append(got, e)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: health events differ from the recounting reference:\n got %v\nwant %v", seed, got, want)
		}
		if len(want) < 10 || m.Stats().RepairsDone == 0 {
			t.Fatalf("seed %d: %d health transitions, %d repairs: the sequence barely moved the count",
				seed, len(want), m.Stats().RepairsDone)
		}
	}
}

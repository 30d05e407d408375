package replica

import (
	"fmt"

	"redbud/internal/alloc"
	"redbud/internal/ost"
	"redbud/internal/sim"
)

// This file is the re-replication engine: the planner that turns an
// under-replicated component into one copy job, and the pacing that meters
// the copy against foreground traffic. The mount executes the plan — it
// fetches the source's written runs, prepares the destination object, and
// moves one slice per step through the regular typed RPC clients — while
// the manager decides what to repair, how fast, and when to yield, reusing
// the defrag mover's discipline: a token bucket over simulated time plus
// preemption whenever foreground requests are queued on either endpoint.

// JobDesc describes one planned repair: copy the component's object from
// Src to Dst. Replace tells the mount how the set changes on completion:
// the index of the (down) member Dst supersedes, ReplaceNone for a
// catch-up of a stale member already in the set, ReplaceGrow to append Dst
// to a short (degraded-create) set.
type JobDesc struct {
	Key Key
	Obj ost.ObjectID
	Src int
	Dst int
	// Replace is the replica-set slot Dst takes over, or one of the
	// sentinels below.
	Replace int
}

// Replace sentinels.
const (
	// ReplaceNone: Dst is already a member, stale; the copy catches it up.
	ReplaceNone = -1
	// ReplaceGrow: the set is short of RF; Dst joins as a new member.
	ReplaceGrow = -2
)

// job is one in-flight repair: the plan plus the copy cursor over the
// source's written runs (snapshotted at job start).
type job struct {
	desc   JobDesc
	runs   []alloc.Range
	runIdx int
	off    int64
	moved  int64
}

// remaining returns the blocks left to copy.
func (j *job) remaining() int64 {
	var rem int64
	for i := j.runIdx; i < len(j.runs); i++ {
		rem += j.runs[i].Count
	}
	return rem - j.off
}

// RepairDone reports a finished job: the component's replica set after the
// repair, and whether it changed (a changed set must be pushed to the MDS
// layout table).
type RepairDone struct {
	Key        Key
	Obj        ost.ObjectID
	Replicas   []int
	SetChanged bool
}

// PlanRepair scans the component table in creation order for the first
// under-replicated component that can be repaired right now and returns
// the job: the least-loaded clean live member as source, and as
// destination either a stale live member (catch-up) or a fresh target
// picked by the spread score among servers outside the current set.
// Components with no live clean source, or no viable destination, are
// skipped — a later crash/revive can unblock them. ok is false when no
// repair is possible (or one is already running).
func (m *Manager) PlanRepair(in []PlaceInput) (JobDesc, bool) {
	if m.job != nil {
		return JobDesc{}, false
	}
	for _, k := range m.order {
		c := m.comps[k]
		if m.cleanLive(c) >= m.cfg.RF {
			continue
		}
		src := -1
		for _, r := range c.replicas {
			if m.down[r] || c.stale[r] {
				continue
			}
			if src < 0 || in[r].BusyNs < in[src].BusyNs {
				src = r
			}
		}
		if src < 0 {
			continue // nothing readable to copy from
		}
		dst, replace := -1, ReplaceNone
		for _, r := range c.replicas {
			if c.stale[r] && !m.down[r] {
				dst = r
				break
			}
		}
		if dst < 0 {
			if len(c.replicas) < m.cfg.RF {
				replace = ReplaceGrow
			} else {
				for i, r := range c.replicas {
					if m.down[r] {
						replace = i
						break
					}
				}
				if replace < 0 {
					continue // only stale-and-down members: wait for revive
				}
			}
			dst = pickBest(in, func(i int) bool { return contains(c.replicas, i) }, k.Comp)
			if dst < 0 {
				continue // no server outside the set is alive
			}
		}
		return JobDesc{Key: k, Obj: c.obj, Src: src, Dst: dst, Replace: replace}, true
	}
	return JobDesc{}, false
}

// StartJob arms the planned job with the source's written runs (the copy
// manifest the mount fetched over the wire).
func (m *Manager) StartJob(jd JobDesc, runs []alloc.Range) {
	m.job = &job{desc: jd, runs: runs}
	m.stats.RepairsStarted++
	var blocks int64
	for _, r := range runs {
		blocks += r.Count
	}
	if m.events != nil {
		m.events.Emit(m.now(), "replica", "repair-start",
			fmt.Sprintf("ino=%d comp=%d ost%d->ost%d %d blocks", uint64(jd.Key.Ino), jd.Key.Comp, jd.Src, jd.Dst, blocks))
	}
}

// JobActive reports whether a repair is in flight.
func (m *Manager) JobActive() bool {
	return m.job != nil
}

// JobDescActive returns the in-flight job's plan.
func (m *Manager) JobDescActive() (JobDesc, bool) {
	if m.job == nil {
		return JobDesc{}, false
	}
	return m.job.desc, true
}

// JobRemaining returns the blocks the in-flight job still has to copy.
func (m *Manager) JobRemaining() int64 {
	if m.job == nil {
		return 0
	}
	return m.job.remaining()
}

// AbortJob drops the in-flight job (its source or destination failed); the
// component stays under-replicated and a later PlanRepair picks a new
// route.
func (m *Manager) AbortJob() {
	m.job = nil
}

// NextSlice hands the mount the next copy slice, or ok=false when the step
// should do nothing: no job, the job is complete (call FinishJob), a
// foreground request is queued on the endpoints (preempted), or the token
// bucket is dry (throttled). force bypasses preemption and throttle — the
// drain mode batch tools use. The returned range is component-logical.
func (m *Manager) NextSlice(force bool, pending int) (alloc.Range, bool) {
	if m.job == nil || m.job.remaining() == 0 {
		return alloc.Range{}, false
	}
	run := m.job.runs[m.job.runIdx]
	n := run.Count - m.job.off
	if n > m.cfg.SliceBlocks {
		n = m.cfg.SliceBlocks
	}
	if !force {
		if pending > 0 {
			m.stats.Preempted++
			return alloc.Range{}, false
		}
		if !m.takeTokens(n) {
			m.stats.Throttled++
			return alloc.Range{}, false
		}
	}
	return alloc.Range{Start: run.Start + m.job.off, Count: n}, true
}

// takeTokens refills the bucket from the simulated-time source and
// takes n tokens, reporting whether the budget allowed it.
func (m *Manager) takeTokens(n int64) bool {
	if m.cfg.RateBlocksPerSec <= 0 {
		return true
	}
	now := m.timeSrc()
	if now > m.lastNs {
		m.tokens += sim.Seconds(now-m.lastNs) * float64(m.cfg.RateBlocksPerSec)
		m.lastNs = now
		if m.tokens > float64(m.cfg.BurstBlocks) {
			m.tokens = float64(m.cfg.BurstBlocks)
		}
	}
	if m.tokens < float64(n) {
		return false
	}
	m.tokens -= float64(n)
	return true
}

// AdvanceJob commits n copied blocks and moves the cursor.
func (m *Manager) AdvanceJob(n int64) {
	if m.job == nil {
		return
	}
	m.stats.RepairBlocks += n
	m.stats.RepairSlices++
	m.job.moved += n
	m.job.off += n
	for m.job.runIdx < len(m.job.runs) && m.job.off >= m.job.runs[m.job.runIdx].Count {
		m.job.off -= m.job.runs[m.job.runIdx].Count
		m.job.runIdx++
	}
}

// FinishJob completes the in-flight repair: the destination becomes a
// clean member per the plan's Replace mode, and the caller pushes the new
// set to the MDS when SetChanged.
func (m *Manager) FinishJob() RepairDone {
	if m.job == nil {
		return RepairDone{}
	}
	jd := m.job.desc
	moved := m.job.moved
	m.job = nil
	done := RepairDone{Key: jd.Key, Obj: jd.Obj}
	c, ok := m.comps[jd.Key]
	if !ok {
		return done // file deleted mid-repair: nothing to commit
	}
	switch jd.Replace {
	case ReplaceNone:
		delete(c.stale, jd.Dst)
	case ReplaceGrow:
		c.replicas = append(c.replicas, jd.Dst)
		delete(c.stale, jd.Dst)
		done.SetChanged = true
	default:
		old := c.replicas[jd.Replace]
		c.replicas[jd.Replace] = jd.Dst
		delete(c.stale, old)
		delete(c.stale, jd.Dst)
		done.SetChanged = true
	}
	done.Replicas = append([]int(nil), c.replicas...)
	m.stats.RepairsDone++
	if m.events != nil {
		m.events.Emit(m.now(), "replica", "repair-done",
			fmt.Sprintf("ino=%d comp=%d ost%d->ost%d %d blocks", uint64(jd.Key.Ino), jd.Key.Comp, jd.Src, jd.Dst, moved))
	}
	m.reassess(c)
	return done
}

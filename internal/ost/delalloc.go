package ost

import (
	"sort"

	"redbud/internal/core"
	"redbud/internal/crashsim"
)

// Delayed allocation (§2 related work): "delayed allocation is also
// proposed in these file systems to postpone allocation to page flush
// time, rather than during the write() operation. This method provides
// the opportunity to combine many block allocation requests into a single
// request... However, it assumes the data can be buffered in the memory
// for a long time, thus do not fit application with explicit sync
// requests well."
//
// With Config.DelayedAllocation set, extending writes are buffered and the
// placement policy runs at flush time over the coalesced ranges. An fsync
// (or a read of the object, or the writeback threshold) forces the flush —
// so frequent syncs shrink the coalescing window back toward per-request
// allocation, which is exactly the weakness on-demand preallocation
// avoids. The ablation benchmarks sweep the fsync interval to show it.

// bufWrite is one buffered extending write.
type bufWrite struct {
	stream  core.StreamID
	logical int64
	count   int64
}

// bufferWrite queues a write under delayed allocation.
func (s *Server) bufferWrite(o *object, stream core.StreamID, logical, count int64) {
	if s.buffered == nil {
		s.buffered = make(map[ObjectID][]bufWrite)
	}
	s.buffered[o.id] = append(s.buffered[o.id], bufWrite{stream: stream, logical: logical, count: count})
	s.bufferedBlocks += count
}

// flushObject allocates and writes an object's buffered ranges:
// the buffered writes are coalesced into maximal logical runs per stream,
// each placed with one policy call — the "single request" delayed
// allocation combines many block allocations into.
func (s *Server) flushObject(o *object) error {
	buf := s.buffered[o.id]
	if len(buf) == 0 {
		return nil
	}
	delete(s.buffered, o.id)
	for _, w := range buf {
		s.bufferedBlocks -= w.count
	}
	// Coalesce: sort by logical, merge overlapping/adjacent ranges.
	// The merged run is attributed to the stream of its first write.
	sort.SliceStable(buf, func(i, j int) bool { return buf[i].logical < buf[j].logical })
	runs := buf[:0]
	for _, w := range buf {
		if n := len(runs); n > 0 && runs[n-1].logical+runs[n-1].count >= w.logical {
			end := w.logical + w.count
			if have := runs[n-1].logical + runs[n-1].count; end > have {
				runs[n-1].count += end - have
			}
			continue
		}
		runs = append(runs, w)
	}
	for _, r := range runs {
		if err := s.writeThrough(o, r.stream, r.logical, r.count); err != nil {
			return err
		}
	}
	return nil
}

// flushAllBuffers flushes every object's buffered writes.
func (s *Server) flushAllBuffers() error {
	// Deterministic order for reproducible simulations.
	ids := make([]ObjectID, 0, len(s.buffered))
	for id := range s.buffered {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		o, err := s.object(id)
		if err != nil {
			// The object vanished with buffers pending: a Delete
			// dropped them already.
			continue
		}
		if err := s.flushObject(o); err != nil {
			return err
		}
	}
	return nil
}

// Fsync forces the object's buffered writes (if any) to be allocated and
// queued to the device, then flushes the device queue — the explicit sync
// that defeats delayed allocation's coalescing.
func (s *Server) Fsync(id ObjectID) error {
	sp, prev := s.startOp(spanFsync)
	defer s.endOp(sp, prev)
	o, err := s.object(id)
	if err != nil {
		return err
	}
	// Crash point: power fails at the fsync barrier, before the buffered
	// and queued writes reach the media — the sync must NOT have been
	// acknowledged, so everything it covered may legally vanish.
	if _, ok := s.crash.Hit(crashsim.PtOstFsyncBarrier, s.bufferedBlocks); ok {
		s.crash.Kill()
	}
	if err := s.flushObject(o); err != nil {
		return err
	}
	s.flush()
	return nil
}

// BufferedBlocks reports the blocks currently buffered under delayed
// allocation, a test hook.
func (s *Server) BufferedBlocks() int64 {
	return s.bufferedBlocks
}

// dropBuffers discards an object's buffered writes (used by Delete).
func (s *Server) dropBuffers(id ObjectID) {
	for _, w := range s.buffered[id] {
		s.bufferedBlocks -= w.count
	}
	delete(s.buffered, id)
}

// checkBufferPressure flushes all buffers when the writeback
// threshold is exceeded.
func (s *Server) checkBufferPressure() error {
	if s.cfg.DelayedFlushBlocks > 0 && s.bufferedBlocks >= s.cfg.DelayedFlushBlocks {
		return s.flushAllBuffers()
	}
	return nil
}

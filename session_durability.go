package graphtinker

// Durable sessions: the batch-analytics path's crash safety. A durable
// session logs every batch's ops (inserts, then deletes — the exact order
// applyBatchLocked applies them) to a WAL before touching the graph, so a
// batch is acknowledged only once the log covers it. Recover rebuilds a
// session from the directory: manifest-validated snapshot, then an
// idempotent replay of the WAL tail. The directory layout and its
// sequences are internal/durable's, shared with DurableStream; a
// session's manifest records Shards = 1.

import (
	"fmt"
	"io"

	"graphtinker/internal/core"
	"graphtinker/internal/durable"
	"graphtinker/internal/wal"
)

// sessionDurability is the durable state attached to a session. All access
// is under the session mutex.
type sessionDurability struct {
	dir  string
	log  *wal.Log
	opts DurabilityOptions

	sinceCkpt uint64
	epoch     uint64 // replication term from the manifest; preserved by checkpoints
	failed    bool   // a WAL write failed; further batches are refused
	info      RecoveryInfo
}

// sessionReplayTarget adapts a session's single graph to the pipelined
// replay interface: one shard, every src on it, ops applied in order.
type sessionReplayTarget struct {
	g *core.GraphTinker
}

func (t sessionReplayTarget) NumShards() int     { return 1 }
func (t sessionReplayTarget) ShardOf(uint64) int { return 0 }
func (t sessionReplayTarget) ApplyShard(_ int, ops []core.EdgeOp) (inserted, deleted int) {
	for _, op := range ops {
		if op.Del {
			if t.g.DeleteEdge(op.Src, op.Dst) {
				deleted++
			}
		} else {
			if t.g.InsertEdge(op.Src, op.Dst, op.Weight) {
				inserted++
			}
		}
	}
	return inserted, deleted
}

// refuseTail is EnableDurability's replay target: the directory must hold
// no logged ops, so a tail is only counted (and then refused), never
// applied to the session's graph.
type refuseTail struct{}

func (refuseTail) NumShards() int                           { return 1 }
func (refuseTail) ShardOf(uint64) int                       { return 0 }
func (refuseTail) ApplyShard(int, []core.EdgeOp) (int, int) { return 0, 0 }

// appendBatch logs one batch's ops in application order. The first append
// failure degrades the session: later batches must not be acknowledged
// past an unlogged one, or the WAL would stop being a prefix of the
// acknowledged stream and recovery would resurrect the refused batch.
func (d *sessionDurability) appendBatch(b Batch) error {
	if d.failed {
		return ErrDurabilityDegraded
	}
	n := len(b.Insert) + len(b.Delete)
	if n == 0 {
		return nil
	}
	ops := make([]Update, 0, n)
	for _, e := range b.Insert {
		ops = append(ops, core.InsertOp(e.Src, e.Dst, e.Weight))
	}
	for _, e := range b.Delete {
		ops = append(ops, core.DeleteOp(e.Src, e.Dst))
	}
	if _, err := d.log.Append(ops); err != nil {
		d.failed = true
		return fmt.Errorf("graphtinker: durable session: batch not applied: %w", err)
	}
	return nil
}

// EnableDurability makes the session crash-safe from here on: every
// subsequent batch is WAL-logged before it is applied, and Checkpoint
// compacts the log into a snapshot. The directory must not already hold
// recovery state (use Recover for that), and the session must not have
// applied unlogged batches. A session whose graph already has edges (built
// before enabling) is checkpointed immediately, so that prior state is
// covered too. Returns the session's WAL for telemetry inspection.
func (s *Session) EnableDurability(dir string, opts DurabilityOptions) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur != nil {
		return fmt.Errorf("graphtinker: session durability already enabled")
	}
	if s.batches > 0 {
		return fmt.Errorf("graphtinker: session has already applied %d unlogged batches; enable durability before applying, or Recover into a fresh session", s.batches)
	}
	o, err := durable.Open(dir, opts.walOptions(), func(m *wal.Manifest, _ io.Reader) (wal.ReplayTarget, error) {
		if m != nil {
			return nil, fmt.Errorf("graphtinker: %s already holds recovery state; use Session.Recover", dir)
		}
		return refuseTail{}, nil
	})
	if err != nil {
		return err
	}
	log := o.Log
	if o.ReplayedOps > 0 {
		_ = log.Close() // abandoning open; the misuse error below is the signal
		return fmt.Errorf("graphtinker: %s already holds %d logged ops; use Session.Recover", dir, o.ReplayedOps)
	}
	s.dur = &sessionDurability{dir: dir, log: log, opts: opts}
	if s.graph.NumEdges() > 0 {
		// Pre-existing edges are not in the log; bake them into an
		// immediate LSN-0 checkpoint so recovery starts from them.
		// The checkpoint runs under s.mu by design: the single-writer
		// lock is what keeps the snapshot consistent.
		if err := s.checkpointLocked(); err != nil {
			_ = log.Close()
			s.dur = nil
			return err
		}
	}
	return nil
}

// Recover rebuilds the session's graph from a durability directory —
// manifest-validated snapshot plus an idempotent replay of the WAL tail
// (ops the snapshot already covers are never re-applied) — and leaves the
// session durable against the same directory. The session must be fresh:
// no applied batches, no attached programs (they would reference the
// replaced graph), durability not yet enabled. An empty directory recovers
// to an empty graph and is equivalent to EnableDurability.
func (s *Session) Recover(dir string) (RecoveryInfo, error) {
	return s.RecoverWithOptions(dir, DurabilityOptions{})
}

// RecoverWithOptions is Recover with an explicit WAL/checkpoint policy for
// the session's continued operation.
func (s *Session) RecoverWithOptions(dir string, opts DurabilityOptions) (RecoveryInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur != nil {
		return RecoveryInfo{}, fmt.Errorf("graphtinker: session durability already enabled")
	}
	if s.batches > 0 || s.graph.NumEdges() > 0 {
		return RecoveryInfo{}, fmt.Errorf("graphtinker: Recover requires a fresh session (graph already has state)")
	}
	if len(s.engines) > 0 {
		return RecoveryInfo{}, fmt.Errorf("graphtinker: Recover requires no attached programs (attach after recovery)")
	}
	// Replay the tail in LSN order; records straddling the snapshot
	// boundary arrive pre-sliced, so nothing applies twice. A session's
	// graph is one shard, so the replay applies inline on the decoder.
	g := s.graph
	o, err := durable.Open(dir, opts.walOptions(), func(_ *wal.Manifest, snap io.Reader) (wal.ReplayTarget, error) {
		if snap != nil {
			var err error
			if g, err = core.ReadSnapshot(snap, nil); err != nil {
				return nil, err
			}
			if s.rec != nil {
				g.Instrument(s.rec)
			}
		}
		return sessionReplayTarget{g}, nil
	})
	if err != nil {
		return RecoveryInfo{}, err
	}
	s.graph = g
	info := recoveryInfo(o)
	s.dur = &sessionDurability{dir: dir, log: o.Log, opts: opts, epoch: o.Manifest.Epoch, info: info}
	return info, nil
}

// Checkpoint fsyncs the log and atomically installs a snapshot + manifest
// covering every op logged so far, then prunes redundant WAL segments.
func (s *Session) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur == nil {
		return fmt.Errorf("graphtinker: session durability not enabled")
	}
	// The checkpoint runs under s.mu by design: the single-writer lock
	// is what keeps the snapshot consistent.
	return s.checkpointLocked()
}

func (s *Session) checkpointLocked() error {
	d := s.dur
	if d.failed {
		// A degraded log may hold a torn tail; snapshotting in-memory state
		// the log doesn't cover (and pruning it) would make the loss
		// permanent.
		return ErrDurabilityDegraded
	}
	if err := d.log.Sync(); err != nil {
		return fmt.Errorf("graphtinker: checkpoint: %w", err)
	}
	m := wal.Manifest{LastLSN: d.log.NextLSN(), Shards: 1, Epoch: d.epoch}
	if err := durable.Checkpoint(d.dir, d.log, m, s.graph.WriteSnapshot, d.opts.Recorder); err != nil {
		return err
	}
	d.sinceCkpt = 0
	return nil
}

// DurabilityInfo reports the session's recovery provenance (zero when
// durability is off or the directory was fresh).
func (s *Session) DurabilityInfo() RecoveryInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur == nil {
		return RecoveryInfo{}
	}
	return s.dur.info
}

// CloseDurability fsyncs and closes the session's WAL and detaches it;
// subsequent batches apply without logging. No-op when durability is off.
func (s *Session) CloseDurability() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur == nil {
		return nil
	}
	err := s.dur.log.Close()
	s.dur = nil
	return err
}

// CrashDurability abandons the WAL the way a killed process would —
// buffers dropped, nothing synced — and detaches durability. Only ops
// already durable survive a subsequent Recover. Built for the chaos suite.
func (s *Session) CrashDurability() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur == nil {
		return
	}
	s.dur.log.Crash()
	s.dur = nil
}

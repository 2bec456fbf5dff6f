package main

import (
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	gt "graphtinker"
	"graphtinker/internal/core"
	"graphtinker/internal/wal"
)

// recoverCfg sizes the recover phase.
type recoverCfg struct {
	scale int // the directory holds RMAT scale × 16 insert ops
}

// recoverSegmentBytes is small enough that the checkpoint at ¾ prunes
// log segments, so a fresh follower bootstraps from the snapshot.
const recoverSegmentBytes = 4 << 20

const catchupTimeout = 2 * time.Minute

// setupRecover builds a durable directory from the input: ¾ of the ops,
// a checkpoint, then the ¼ tail left in the WAL.
func setupRecover(e *env, name string, in *recoverInput) (string, error) {
	dir, err := e.dir(name)
	if err != nil {
		return "", err
	}
	ds, err := gt.OpenDurableStream(gt.DefaultConfig(), dir, gt.DurableStreamOptions{
		Durability: gt.DurabilityOptions{SegmentBytes: recoverSegmentBytes},
	})
	if err != nil {
		return "", err
	}
	cut := len(in.ops) * 3 / 4
	err = pushChunks(ds, in.ops[:cut])
	if err == nil {
		err = ds.Checkpoint()
	}
	if err == nil {
		err = pushChunks(ds, in.ops[cut:])
	}
	if err == nil {
		err = ds.Flush()
	}
	if err != nil {
		_, _ = ds.Close() // already failing with err
		return "", err
	}
	if _, err := ds.Close(); err != nil {
		return "", err
	}
	return dir, nil
}

// recoverPhase is the recover phase: reopening a durable directory, and
// catching fresh followers up from a primary serving a copy of it.
type recoverPhase struct {
	c    recoverCfg
	e    *env
	r    *phaseResult
	in   *recoverInput
	want *oracleView
	dir  string // reopened by the reopen loop
	pdir string // a copy the primary serves

	shipRec, applyRec *gt.ReplicationRecorder
	primary           *gt.ReplicatedStream
	serving           sync.WaitGroup // HandleConn calls, which end with the primary

	reopens, catchups []float64
}

func (p *recoverPhase) setup() error {
	p.r = newPhaseResult()
	var err error
	if p.in, err = newRecoverInput(p.c.scale, p.e.seed); err != nil {
		return err
	}
	p.want = newOracleView(p.in.oracle)
	if p.dir, err = setupRecover(p.e, "recover", p.in); err != nil {
		return err
	}

	if p.pdir, err = p.e.dir("primary"); err != nil {
		return err
	}
	if err := copyDir(p.dir, p.pdir); err != nil {
		return err
	}
	if p.e.tr != nil {
		p.shipRec, p.applyRec = gt.NewReplicationRecorder(), gt.NewReplicationRecorder()
	}
	p.primary, err = gt.OpenReplicatedStream(gt.DefaultConfig(), p.pdir, gt.ReplicatedStreamOptions{
		Stream:   gt.DurableStreamOptions{Durability: gt.DurabilityOptions{SegmentBytes: recoverSegmentBytes}},
		Recorder: p.shipRec,
	})
	if err != nil {
		return fmt.Errorf("open primary: %w", err)
	}
	return nil
}

// slice alternates a reopen of the directory and a fresh follower's
// catch-up for about d, at least once.
func (p *recoverPhase) slice(d time.Duration) error {
	start := time.Now()
	for first := true; first || time.Since(start) < d; first = false {
		if err := p.reopen(); err != nil {
			return err
		}
		if err := p.catchUp(); err != nil {
			return err
		}
	}
	return nil
}

// reopen times one OpenDurableStream of the directory and verifies what
// it recovered.
func (p *recoverPhase) reopen() error {
	r, in := p.r, p.in
	opts := gt.DurableStreamOptions{Durability: gt.DurabilityOptions{SegmentBytes: recoverSegmentBytes}}
	t0 := time.Now()
	ds, err := gt.OpenDurableStream(gt.DefaultConfig(), p.dir, opts)
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	p.e.tr.record(0, 0, "facade", "OpenDurableStream", t0, t1)
	p.reopens = append(p.reopens, t1.Sub(t0).Seconds())
	cut := uint64(len(in.ops) * 3 / 4)
	info := ds.Recovery()
	r.expect(info.SnapshotOps == cut && info.ReplayedOps == uint64(len(in.ops))-cut,
		"reopen recovered %+v, want snapshot %d + replay %d", info, cut, uint64(len(in.ops))-cut)
	compareStores(&r.checker, "reopened store", ds.Store(), p.want, in.keys, verifySample, p.e.seed+uint64(len(p.reopens)))
	if _, err := ds.Close(); err != nil {
		return fmt.Errorf("close after reopen: %w", err)
	}
	return nil
}

// catchUp attaches a fresh follower to the primary over net.Pipe and
// times it until it has applied everything the primary logged.
func (p *recoverPhase) catchUp() error {
	r, i := p.r, len(p.catchups)
	fdir, err := p.e.dir("follower")
	if err != nil {
		return err
	}
	target := p.primary.NextLSN()
	t0 := time.Now()
	f, err := gt.OpenFollower(gt.DefaultConfig(), fdir, gt.FollowerHandleOptions{Recorder: p.applyRec})
	if err != nil {
		return fmt.Errorf("open follower: %w", err)
	}
	pc, fc := net.Pipe()
	p.serving.Add(1)
	go func() {
		defer p.serving.Done()
		_ = p.primary.HandleConn(pc) // ends with the primary; the follower's view is the signal
	}()
	ran := make(chan error, 1)
	go func() { ran <- f.Run(fc) }()
	werr := f.WaitForLSN(target, catchupTimeout)
	t1 := time.Now()
	p.e.tr.record(0, 0, "replication", "follower catch-up", t0, t1)
	p.catchups = append(p.catchups, t1.Sub(t0).Seconds())
	r.expect(werr == nil, "follower %d: WaitForLSN(%d): %v", i, target, werr)
	if werr == nil {
		compareStores(&r.checker, "follower", f.Store(), p.primary.Store(), p.in.keys, verifySample, p.e.seed+uint64(i))
		got := f.Store().NumEdges()
		r.expect(got == uint64(len(p.in.oracle)), "follower holds %d edges, oracle %d", got, len(p.in.oracle))
	}
	cerr := f.Close()
	rerr := <-ran
	r.expect(cerr == nil, "follower close: %v", cerr)
	r.expect(rerr == nil, "follower run: %v", rerr)
	return os.RemoveAll(fdir)
}

func (p *recoverPhase) finish() (*phaseResult, error) {
	r := p.r
	defer os.RemoveAll(p.dir)
	defer os.RemoveAll(p.pdir)
	_, perr := p.primary.Close()
	p.serving.Wait()
	if perr != nil {
		return nil, fmt.Errorf("close primary: %w", perr)
	}
	r.e2e["reopen_s"] = median(p.reopens)
	r.e2e["catchup_s"] = median(p.catchups)

	if p.e.tr != nil {
		snapLoad, replay, replayed, err := recoveryProbe(r, p.dir, len(p.in.oracle), 3)
		if err != nil {
			return nil, err
		}
		r.layer["core.snapshot_load_s"] = snapLoad
		r.layer["wal.replay_s"] = replay
		r.layer["wal.replay_ops_per_s"] = float64(replayed) / replay
		r.row("facade/reopen", "spans: OpenDurableStream", float64(len(p.reopens)), dur(sum(p.reopens)), 0)
		r.row("wal/replay", "ReplayInto probe: ops replayed, median time", float64(replayed), dur(replay), 0)
		r.row("core/snapshot-load", "ReadParallelSnapshot probe: median time", 1, dur(snapLoad), 0)
		r.checks = append(r.checks, newCheck("reopen", snapLoad+replay, r.e2e["reopen_s"], 15))

		ship, apply := p.shipRec.Snapshot(), p.applyRec.Snapshot()
		r.layer["replication.bytes_shipped"] = float64(ship.BytesShipped)
		r.layer["replication.frames"] = float64(ship.FramesSent)
		r.layer["replication.snapshots_installed"] = float64(apply.SnapshotsInstalled)
		r.layer["replication.ops_applied"] = float64(apply.OpsApplied)
		r.layer["replication.apply_ops_per_s"] = float64(apply.OpsApplied) / sum(p.catchups)
		r.layer["replication.duplicates"] = float64(apply.DuplicateRecords)
		r.row("replication/catch-up", "ReplicationRecorder frames; catch-up spans", float64(ship.FramesSent), dur(sum(p.catchups)), 0)
	}

	return r, nil
}

// copyDir copies the regular files and directories under src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer func() { _ = in.Close() }() // read-only; the copy's errors are the signal
		out, err := os.Create(to)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			_ = out.Close() // already failing with the copy error
			return err
		}
		return out.Close()
	})
}

// recoveryProbe times the two halves of a reopen directly on the
// directory: decoding the manifest's snapshot into a store, then replaying
// the WAL tail into it. It returns the median times and the ops replayed.
func recoveryProbe(r *phaseResult, dir string, wantEdges, reps int) (load, replay float64, replayed uint64, err error) {
	m, ok, err := wal.LoadManifest(dir)
	if err != nil || !ok {
		return 0, 0, 0, fmt.Errorf("recovery probe: manifest: ok=%v err=%v", ok, err)
	}
	var loads, replays []float64
	for i := 0; i < reps; i++ {
		f, err := wal.OpenManifestSnapshot(dir, m)
		if err != nil {
			return 0, 0, 0, err
		}
		t0 := time.Now()
		store, err := core.ReadParallelSnapshot(f, nil)
		t1 := time.Now()
		_ = f.Close() // read-only; the decode error is the signal
		if err != nil {
			return 0, 0, 0, fmt.Errorf("recovery probe: snapshot: %w", err)
		}
		next, err := wal.ReplayInto(filepath.Join(dir, "wal"), m.LastLSN, nil, store)
		t2 := time.Now()
		if err != nil {
			store.Close()
			return 0, 0, 0, fmt.Errorf("recovery probe: replay: %w", err)
		}
		r.expect(store.NumEdges() == uint64(wantEdges), "recovery probe rebuilt %d edges, want %d", store.NumEdges(), wantEdges)
		store.Close()
		loads = append(loads, t1.Sub(t0).Seconds())
		replays = append(replays, t2.Sub(t1).Seconds())
		replayed = next - m.LastLSN
	}
	return median(loads), median(replays), replayed, nil
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func dur(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

// Package durable is the durability directory: the one place that knows
// its layout and the sequences that keep it crash-safe. Every durable
// front — DurableStream, durable sessions and replication followers —
// opens, checkpoints and bootstraps through it.
//
//	dir/MANIFEST.json   snapshot ↔ WAL-offset binding (atomic install)
//	dir/snap-<lsn>.gts  the latest snapshot (size + CRC32-C checked on load)
//	dir/wal/            segmented, checksummed log of every admitted op
//
// The invariant the layer rests on: the WAL is an exact prefix of the
// acknowledged op stream, and a snapshot installed at LSN n captures
// exactly ops [0, n). So recovery = load snapshot + replay ops
// [n, NextLSN), and no op is applied twice — records straddling n are
// sliced, not re-applied.
//
// Install order: snapshot temp file (its CRC32-C taken as it is written)
// → fsync → rename → directory fsync → manifest (temp + fsync + rename +
// directory fsync) → GC of superseded snapshots. A crash at any point
// leaves the old manifest or the new one, never a torn mix. What it can
// leave behind is temp files no manifest names (.snap-*, .manifest-*, and
// the .bootstrap-* of builds that staged follower snapshots separately);
// Open sweeps them.
package durable

import (
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"graphtinker/internal/core"
	"graphtinker/internal/wal"
)

const (
	walSubdir  = "wal"
	snapSuffix = ".gts"
	snapTemp   = ".snap-*"
)

// tempPatterns are the crash leftovers Open removes.
var tempPatterns = []string{snapTemp, ".manifest-*", ".bootstrap-*"}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrLogBehindSnapshot reports a WAL that ends before the LSN the
// manifest's snapshot covers: the log behind a checkpoint is gone.
// Streams and sessions fail their open with it. A follower resets its log
// instead (ResetLog), because a crash between a bootstrap's manifest
// install and its WAL reset leaves exactly this state, and every op in
// that log is below the snapshot's LSN.
var ErrLogBehindSnapshot = errors.New("durable: wal ends before the manifest's snapshot (log lost behind checkpoint)")

// A Loader builds the caller's in-memory store for Open. m is the
// directory's manifest, nil when it has none; snap is the manifest's
// validated snapshot, nil when it names none. The returned target
// receives the WAL tail.
type Loader func(m *wal.Manifest, snap io.Reader) (wal.ReplayTarget, error)

// Opened is what Open recovered.
type Opened struct {
	// Log is the directory's WAL, positioned after the replayed tail.
	Log *wal.Log
	// Manifest is the manifest recovery started from (zero when none).
	Manifest wal.Manifest
	// Recovered is true when a snapshot or a WAL tail was found.
	Recovered bool
	// SnapshotOps is the loaded snapshot's LSN.
	SnapshotOps uint64
	// ReplayedOps counts the ops replayed from the WAL past the snapshot.
	ReplayedOps uint64
}

// Open opens (or creates) a durability directory: it sweeps crash temps,
// hands the manifest's validated snapshot to load, opens the WAL with
// opts at the snapshot's LSN (opts.InitialLSN is taken from the manifest)
// and replays the tail into load's target. A WAL that ends before the
// snapshot fails with ErrLogBehindSnapshot. On error the log is closed;
// whatever load built is the caller's to release.
func Open(dir string, opts wal.Options, load Loader) (Opened, error) {
	if err := opts.Validate(); err != nil {
		return Opened{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Opened{}, fmt.Errorf("durable: open: %w", err)
	}
	for _, pat := range tempPatterns {
		stale, _ := filepath.Glob(filepath.Join(dir, pat)) // the pattern is well-formed
		for _, s := range stale {
			os.Remove(s)
		}
	}
	m, ok, err := wal.LoadManifest(dir)
	if err != nil {
		return Opened{}, err
	}
	var mp *wal.Manifest
	if ok {
		mp = &m
	}
	o := Opened{Manifest: m}
	var target wal.ReplayTarget
	if ok && m.Snapshot != "" {
		f, err := wal.OpenManifestSnapshot(dir, m)
		if err != nil {
			return Opened{}, fmt.Errorf("durable: recover: %w", err)
		}
		target, err = load(mp, f)
		_ = f.Close() // read-only; the decode error is the signal
		if err != nil {
			return Opened{}, fmt.Errorf("durable: recover: %w", err)
		}
		o.Recovered, o.SnapshotOps = true, m.LastLSN
	} else if target, err = load(mp, nil); err != nil {
		return Opened{}, err
	}

	wdir := filepath.Join(dir, walSubdir)
	opts.InitialLSN = m.LastLSN
	log, err := wal.Open(wdir, opts)
	if err != nil {
		return Opened{}, err
	}
	if next := log.NextLSN(); next < m.LastLSN {
		_ = log.Close() // abandoning open; the recovery error is the signal
		return Opened{}, fmt.Errorf("%w: wal ends at LSN %d, snapshot covers %d", ErrLogBehindSnapshot, next, m.LastLSN)
	}
	next, err := wal.ReplayInto(wdir, m.LastLSN, opts.Recorder, target)
	if err != nil {
		_ = log.Close() // abandoning open; the replay error is the signal
		return Opened{}, err
	}
	if next > m.LastLSN {
		o.Recovered, o.ReplayedOps = true, next-m.LastLSN
	}
	o.Log = log
	return o, nil
}

// OpenParallel is Open for a sharded store: a snapshot decodes into a
// core.Parallel of its stored width; without one the store starts empty,
// as wide as the manifest records, or shards wide when there is none.
func OpenParallel(dir string, opts wal.Options, cfg core.Config, shards int) (*core.Parallel, Opened, error) {
	var store *core.Parallel
	o, err := Open(dir, opts, func(m *wal.Manifest, snap io.Reader) (wal.ReplayTarget, error) {
		var err error
		switch {
		case snap != nil:
			store, err = core.ReadParallelSnapshot(snap, nil)
		case m != nil && m.Shards > 0:
			store, err = core.NewParallel(cfg, m.Shards)
		default:
			store, err = core.NewParallel(cfg, shards)
		}
		return store, err
	})
	if err != nil {
		if store != nil {
			store.Close()
		}
		return nil, Opened{}, err
	}
	return store, o, nil
}

// InstallSnapshot durably installs a snapshot and the manifest that binds
// it. write streams the snapshot into a temp file; verify, when non-nil,
// sees the bytes' CRC32-C and size before anything is made durable or
// visible. Then the temp is fsynced and renamed to snap-<m.LastLSN>.gts,
// the directory is fsynced, the manifest (m's LastLSN, Shards and Epoch
// plus the snapshot's name, CRC and size) is installed, and every other
// snap-*.gts is removed. An error from write or verify removes the temp
// and installs nothing. GC failures do not fail the install — the
// manifest names the live snapshot — but are counted on rec, so stuck GC
// (a disk filling with dead snapshots) stays visible.
func InstallSnapshot(dir string, m wal.Manifest, write func(io.Writer) error, verify func(crc uint32, size int64) error, rec *wal.Recorder) (wal.Manifest, error) {
	tmp, err := os.CreateTemp(dir, snapTemp)
	if err != nil {
		return wal.Manifest{}, fmt.Errorf("durable: install snapshot: %w", err)
	}
	cw := &crcWriter{w: tmp, h: crc32.New(castagnoli)}
	err = write(cw)
	if err == nil && verify != nil {
		err = verify(cw.h.Sum32(), cw.n)
	}
	if err == nil {
		if err = tmp.Sync(); err != nil {
			err = fmt.Errorf("durable: install snapshot: %w", err)
		}
	}
	if cerr := tmp.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("durable: install snapshot: %w", cerr)
	}
	m.Snapshot = fmt.Sprintf("snap-%016x%s", m.LastLSN, snapSuffix)
	if err == nil {
		if err = os.Rename(tmp.Name(), filepath.Join(dir, m.Snapshot)); err != nil {
			err = fmt.Errorf("durable: install snapshot: %w", err)
		}
	}
	if err != nil {
		os.Remove(tmp.Name())
		return wal.Manifest{}, err
	}
	// Until the directory fsync lands, the rename may not survive a crash,
	// so the manifest must not name the snapshot yet.
	if err := wal.SyncDir(dir); err != nil {
		return wal.Manifest{}, err
	}
	m.SnapshotCRC, m.SnapshotBytes = cw.h.Sum32(), cw.n
	if err := wal.WriteManifest(dir, m); err != nil {
		return wal.Manifest{}, err
	}
	stale, _ := filepath.Glob(filepath.Join(dir, "snap-*"+snapSuffix)) // the pattern is well-formed
	for _, s := range stale {
		if filepath.Base(s) == m.Snapshot {
			continue
		}
		if err := os.Remove(s); err != nil && !errors.Is(err, os.ErrNotExist) && rec != nil {
			rec.SnapshotGCFailures.Inc()
		}
	}
	return m, nil
}

// Checkpoint installs a snapshot at m.LastLSN (see InstallSnapshot) and
// prunes the log segments it made redundant. Every op below m.LastLSN must
// already be synced in log. A log closed by a crash keeps its segments;
// the next checkpoint after reopening prunes them.
func Checkpoint(dir string, log *wal.Log, m wal.Manifest, write func(io.Writer) error, rec *wal.Recorder) error {
	if _, err := InstallSnapshot(dir, m, write, nil, rec); err != nil {
		return err
	}
	if _, err := log.Prune(m.LastLSN); err != nil && !errors.Is(err, wal.ErrClosed) {
		return err
	}
	return nil
}

// SetEpoch durably records a replication term in dir's manifest, keeping
// its snapshot binding. A directory without a manifest gets an epoch-only
// one recording the store's width.
func SetEpoch(dir string, epoch uint64, shards int) error {
	m, ok, err := wal.LoadManifest(dir)
	if err != nil {
		return err
	}
	if !ok {
		m = wal.Manifest{Shards: shards}
	}
	m.Epoch = epoch
	return wal.WriteManifest(dir, m)
}

// ResetLog deletes dir's WAL. Only a caller whose installed snapshot
// covers every op in that log may do so: a follower that has just
// bootstrapped, or one whose Open failed with ErrLogBehindSnapshot.
func ResetLog(dir string) error {
	if err := os.RemoveAll(filepath.Join(dir, walSubdir)); err != nil {
		return fmt.Errorf("durable: reset wal: %w", err)
	}
	return nil
}

// Snapshot opens dir's current snapshot for shipping: the manifest and
// the validated file, or a nil file when the directory has none. A
// validation error usually means a concurrent checkpoint replaced the
// snapshot; load again.
func Snapshot(dir string) (wal.Manifest, *os.File, error) {
	m, ok, err := wal.LoadManifest(dir)
	if err != nil || !ok || m.Snapshot == "" {
		return m, nil, err
	}
	f, err := wal.OpenManifestSnapshot(dir, m)
	return m, f, err
}

// crcWriter takes the CRC32-C and size of a snapshot as it is written, so
// the finished file is never read back to validate it.
type crcWriter struct {
	w io.Writer
	h hash.Hash32
	n int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	_, _ = c.h.Write(p[:n]) // hash.Hash writes never fail
	c.n += int64(n)
	return n, err
}

package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphtinker/internal/core"
	"graphtinker/internal/wal"
)

// countTarget is a one-shard replay target that only counts ops.
type countTarget struct{ ops int }

func (c *countTarget) NumShards() int     { return 1 }
func (c *countTarget) ShardOf(uint64) int { return 0 }
func (c *countTarget) ApplyShard(_ int, ops []core.EdgeOp) (int, int) {
	c.ops += len(ops)
	return len(ops), 0
}

// openCounting opens dir with a loader that records the snapshot bytes
// it was handed and counts the replayed tail.
func openCounting(t *testing.T, dir string) (Opened, string, *countTarget) {
	t.Helper()
	var snap string
	target := &countTarget{}
	o, err := Open(dir, wal.Options{SyncInterval: -1}, func(_ *wal.Manifest, r io.Reader) (wal.ReplayTarget, error) {
		if r != nil {
			b, err := io.ReadAll(r)
			if err != nil {
				return nil, err
			}
			snap = string(b)
		}
		return target, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return o, snap, target
}

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

func appendOps(t *testing.T, log *wal.Log, n int) {
	t.Helper()
	ops := make([]core.EdgeOp, n)
	for i := range ops {
		ops[i] = core.InsertOp(uint64(i), uint64(i+1), 1)
	}
	if _, err := log.Append(ops); err != nil {
		t.Fatal(err)
	}
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableDirOptionsValidate(t *testing.T) {
	if err := (wal.Options{}).Validate(); err != nil {
		t.Fatalf("zero Options must be valid (defaults): %v", err)
	}
	invalid := []struct {
		name string
		opts wal.Options
	}{
		{"negative SegmentBytes", wal.Options{SegmentBytes: -1}},
	}
	for _, tc := range invalid {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.opts.Validate(); err == nil {
				t.Fatalf("Validate accepted %+v", tc.opts)
			}
			dir := filepath.Join(t.TempDir(), "d")
			if _, err := Open(dir, tc.opts, nil); err == nil {
				t.Fatalf("Open accepted %+v", tc.opts)
			}
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Fatalf("Open rejected %+v but created the directory", tc.opts)
			}
		})
	}
}

func TestDurableDirCheckpointAndReopen(t *testing.T) {
	dir := t.TempDir()
	o, snap, _ := openCounting(t, dir)
	if o.Recovered || snap != "" {
		t.Fatalf("fresh directory recovered %+v", o)
	}
	appendOps(t, o.Log, 30)
	m := wal.Manifest{LastLSN: 30, Shards: 3, Epoch: 2}
	if err := Checkpoint(dir, o.Log, m, writeString("first"), nil); err != nil {
		t.Fatal(err)
	}
	appendOps(t, o.Log, 12)
	if err := o.Log.Close(); err != nil {
		t.Fatal(err)
	}

	o, snap, target := openCounting(t, dir)
	defer func() { _ = o.Log.Close() }()
	if snap != "first" {
		t.Fatalf("loader got snapshot %q, want %q", snap, "first")
	}
	if !o.Recovered || o.SnapshotOps != 30 || o.ReplayedOps != 12 || target.ops != 12 {
		t.Fatalf("recovery %+v (applied %d), want 30 snapshot + 12 replayed", o, target.ops)
	}
	if got := o.Manifest; got.Shards != 3 || got.Epoch != 2 || got.SnapshotBytes != int64(len("first")) {
		t.Fatalf("manifest %+v does not carry the checkpoint's fields", got)
	}
	// The CRC taken while writing is the file's CRC.
	crc, size, err := wal.FileCRC(filepath.Join(dir, o.Manifest.Snapshot))
	if err != nil || crc != o.Manifest.SnapshotCRC || size != o.Manifest.SnapshotBytes {
		t.Fatalf("manifest binds crc %08x/%d bytes, file has %08x/%d (err %v)",
			o.Manifest.SnapshotCRC, o.Manifest.SnapshotBytes, crc, size, err)
	}
	if o.Log.NextLSN() != 42 {
		t.Fatalf("log reopened at LSN %d, want 42", o.Log.NextLSN())
	}
}

func TestDurableDirInstallSnapshot(t *testing.T) {
	dir := t.TempDir()
	rec := wal.NewRecorder()
	if _, err := InstallSnapshot(dir, wal.Manifest{LastLSN: 5}, writeString("old"), nil, rec); err != nil {
		t.Fatal(err)
	}

	// A verify failure installs nothing and leaves no temp behind.
	reject := errors.New("bad header")
	_, err := InstallSnapshot(dir, wal.Manifest{LastLSN: 9}, writeString("new"), func(crc uint32, size int64) error {
		if size != 3 {
			t.Errorf("verify saw %d bytes, want 3", size)
		}
		return reject
	}, rec)
	if !errors.Is(err, reject) {
		t.Fatalf("install with a failing verify = %v, want the verify error", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".") {
			t.Fatalf("failed install leaked %s", e.Name())
		}
	}

	// A second install collects the first snapshot.
	m, err := InstallSnapshot(dir, wal.Manifest{LastLSN: 9}, writeString("new"), nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.gts"))
	if len(snaps) != 1 || filepath.Base(snaps[0]) != m.Snapshot {
		t.Fatalf("snapshots on disk %v, want only %s", snaps, m.Snapshot)
	}
	if got := rec.Snapshot().SnapshotGCFailures; got != 0 {
		t.Fatalf("SnapshotGCFailures = %d, want 0", got)
	}
}

func TestDurableDirLogBehindSnapshot(t *testing.T) {
	dir := t.TempDir()
	o, _, _ := openCounting(t, dir)
	appendOps(t, o.Log, 3)
	if err := o.Log.Close(); err != nil {
		t.Fatal(err)
	}
	// A snapshot far past the log, as a bootstrap leaves it when killed
	// before its WAL reset.
	if _, err := InstallSnapshot(dir, wal.Manifest{LastLSN: 100}, writeString("snap"), nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, wal.Options{}, func(*wal.Manifest, io.Reader) (wal.ReplayTarget, error) {
		return &countTarget{}, nil
	}); !errors.Is(err, ErrLogBehindSnapshot) {
		t.Fatalf("Open over a log behind its snapshot = %v, want ErrLogBehindSnapshot", err)
	}
	if err := ResetLog(dir); err != nil {
		t.Fatal(err)
	}
	o, _, _ = openCounting(t, dir)
	defer func() { _ = o.Log.Close() }()
	if o.Log.NextLSN() != 100 || o.ReplayedOps != 0 {
		t.Fatalf("after ResetLog: log at %d, replayed %d; want 100, 0", o.Log.NextLSN(), o.ReplayedOps)
	}
}

func TestDurableDirSetEpoch(t *testing.T) {
	dir := t.TempDir()
	if err := SetEpoch(dir, 3, 4); err != nil {
		t.Fatal(err)
	}
	m, f, err := Snapshot(dir)
	if err != nil || f != nil || m.Epoch != 3 || m.Shards != 4 {
		t.Fatalf("epoch-only manifest: %+v file=%v err=%v", m, f, err)
	}
	if _, err := InstallSnapshot(dir, wal.Manifest{LastLSN: 7, Shards: 4, Epoch: 3}, writeString("s"), nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := SetEpoch(dir, 4, 1); err != nil {
		t.Fatal(err)
	}
	m, f, err = Snapshot(dir)
	if err != nil || f == nil {
		t.Fatalf("Snapshot after SetEpoch: file=%v err=%v", f, err)
	}
	_ = f.Close()
	if m.Epoch != 4 || m.LastLSN != 7 || m.Shards != 4 {
		t.Fatalf("SetEpoch lost the snapshot binding: %+v", m)
	}
}

package graphtinker_test

// Tests of the shared durable-directory layer as the three openers see
// it: crash temps are swept by every one of them, and every one rejects
// nonsense options instead of coercing them.

import (
	"os"
	"path/filepath"
	"testing"

	graphtinker "graphtinker"
	"graphtinker/internal/testutil"
)

// TestDurableDirSweepsCrashTemps plants each temp a kill mid-checkpoint
// or mid-bootstrap can leave behind, reopens the directory with each
// opener, and requires the temp gone and the recovered state unchanged.
func TestDurableDirSweepsCrashTemps(t *testing.T) {
	batches, flat := sessionBatches(20, 40, 0x7e3b)
	oracle := oracleOver(flat)
	streamOpts := graphtinker.DurableStreamOptions{
		Shards:     2,
		Pipeline:   graphtinker.StreamPipelineOptions{MaxBatch: 256, FlushInterval: -1},
		Durability: graphtinker.DurabilityOptions{SyncInterval: -1},
	}
	// A stream-written directory: a checkpoint over the first half, the
	// rest in the WAL tail. Followers open the same layout.
	buildStream := func(t *testing.T, dir string) {
		ds, err := graphtinker.OpenDurableStream(graphtinker.DefaultConfig(), dir, streamOpts)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.PushBatch(flat[:len(flat)/2]); err != nil {
			t.Fatal(err)
		}
		if err := ds.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := ds.PushBatch(flat[len(flat)/2:]); err != nil {
			t.Fatal(err)
		}
		if _, err := ds.Close(); err != nil {
			t.Fatal(err)
		}
	}
	openers := []struct {
		name  string
		build func(t *testing.T, dir string)
		// reopen recovers dir and checks the state against the oracle.
		reopen func(t *testing.T, dir string)
	}{
		{"stream", buildStream, func(t *testing.T, dir string) {
			ds, err := graphtinker.OpenDurableStream(graphtinker.DefaultConfig(), dir, streamOpts)
			if err != nil {
				t.Fatal(err)
			}
			testutil.CheckAgainstRef(t, ds.Store(), oracle)
			if _, err := ds.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"session", func(t *testing.T, dir string) {
			s, err := graphtinker.NewSession(graphtinker.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.EnableDurability(dir, graphtinker.DurabilityOptions{SyncInterval: 0, SnapshotEvery: 300}); err != nil {
				t.Fatal(err)
			}
			for _, b := range batches {
				if out := s.ApplyBatch(b); out.DurabilityErr != nil {
					t.Fatal(out.DurabilityErr)
				}
			}
			if err := s.CloseDurability(); err != nil {
				t.Fatal(err)
			}
		}, func(t *testing.T, dir string) {
			s, err := graphtinker.NewSession(graphtinker.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Recover(dir); err != nil {
				t.Fatal(err)
			}
			testutil.CheckAgainstRef(t, s.Graph(), oracle)
			if err := s.CloseDurability(); err != nil {
				t.Fatal(err)
			}
		}},
		{"follower", buildStream, func(t *testing.T, dir string) {
			f, err := graphtinker.OpenFollower(graphtinker.DefaultConfig(), dir, graphtinker.FollowerHandleOptions{
				Durability: graphtinker.DurabilityOptions{SyncInterval: -1},
			})
			if err != nil {
				t.Fatal(err)
			}
			testutil.CheckAgainstRef(t, f.Store(), oracle)
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, op := range openers {
		t.Run(op.name, func(t *testing.T) {
			dir := t.TempDir()
			op.build(t, dir)
			for _, temp := range []string{".snap-4242", ".manifest-4242", ".bootstrap-4242"} {
				path := filepath.Join(dir, temp)
				if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
					t.Fatal(err)
				}
				op.reopen(t, dir)
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Fatalf("%s survived a reopen (stat err = %v)", temp, err)
				}
			}
		})
	}
}

// TestDurableDirOptionsValidation: the zero value selects the defaults
// for every opener, and each invalid field is rejected by every opener it
// reaches rather than coerced or ignored.
func TestDurableDirOptionsValidation(t *testing.T) {
	cfg := graphtinker.DefaultConfig()
	openers := map[string]func(dir string, o graphtinker.DurabilityOptions) error{
		"stream": func(dir string, o graphtinker.DurabilityOptions) error {
			ds, err := graphtinker.OpenDurableStream(cfg, dir, graphtinker.DurableStreamOptions{Durability: o})
			if err == nil {
				_, err = ds.Close()
			}
			return err
		},
		"session": func(dir string, o graphtinker.DurabilityOptions) error {
			s, err := graphtinker.NewSession(cfg)
			if err != nil {
				return err
			}
			if _, err := s.RecoverWithOptions(dir, o); err != nil {
				return err
			}
			return s.CloseDurability()
		},
		"follower": func(dir string, o graphtinker.DurabilityOptions) error {
			f, err := graphtinker.OpenFollower(cfg, dir, graphtinker.FollowerHandleOptions{Durability: o})
			if err == nil {
				err = f.Close()
			}
			return err
		},
	}
	cases := []struct {
		name    string
		opts    graphtinker.DurabilityOptions
		invalid map[string]bool // openers that must reject opts
	}{
		{"zero value", graphtinker.DurabilityOptions{}, nil},
		{"negative SegmentBytes", graphtinker.DurabilityOptions{SegmentBytes: -1},
			map[string]bool{"stream": true, "session": true, "follower": true}},
		{"follower SnapshotEvery", graphtinker.DurabilityOptions{SnapshotEvery: 100},
			map[string]bool{"follower": true}},
	}
	for _, tc := range cases {
		for name, open := range openers {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "d")
				err := open(dir, tc.opts)
				if tc.invalid[name] {
					if err == nil {
						t.Fatalf("%s accepted %+v", name, tc.opts)
					}
					if _, serr := os.Stat(dir); !os.IsNotExist(serr) {
						t.Fatalf("%s rejected %+v but still created the directory", name, tc.opts)
					}
				} else if err != nil {
					t.Fatalf("%s rejected %+v: %v", name, tc.opts, err)
				}
			})
		}
	}
}

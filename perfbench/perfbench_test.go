package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"

	gt "graphtinker"
)

// churnStream returns the prefill and the first n batches of a seed's
// durable-churn stream.
func churnStream(t *testing.T, seed uint64, n int) ([]gt.Update, [][]gt.Update) {
	t.Helper()
	g, prefill, err := newChurnGen(10, seed)
	if err != nil {
		t.Fatal(err)
	}
	var batches [][]gt.Update
	for i := 0; i < n; i++ {
		batches = append(batches, slices.Clone(g.nextBatch(nil, 4096)))
	}
	return prefill, batches
}

func TestSeedDeterminesInputs(t *testing.T) {
	p1, b1 := churnStream(t, 7, 8)
	p2, b2 := churnStream(t, 7, 8)
	p3, b3 := churnStream(t, 8, 8)
	if !slices.Equal(p1, p2) || !slices.EqualFunc(b1, b2, slices.Equal) {
		t.Error("same seed gave different churn streams")
	}
	if slices.Equal(p1, p3) || slices.EqualFunc(b1, b3, slices.Equal) {
		t.Error("different seeds gave the same churn stream")
	}

	a1, _ := newAnalyticsInput(10, 1024, 7)
	a2, _ := newAnalyticsInput(10, 1024, 7)
	a3, _ := newAnalyticsInput(10, 1024, 8)
	if !slices.EqualFunc(a1.batches, a2.batches, slices.Equal) || a1.root != a2.root {
		t.Error("same seed gave different analytics inputs")
	}
	if slices.EqualFunc(a1.batches, a3.batches, slices.Equal) {
		t.Error("different seeds gave the same analytics input")
	}

	r1, _ := newRecoverInput(10, 7)
	r2, _ := newRecoverInput(10, 7)
	r3, _ := newRecoverInput(10, 8)
	if !slices.Equal(r1.ops, r2.ops) {
		t.Error("same seed gave different recover inputs")
	}
	if slices.Equal(r1.ops, r3.ops) {
		t.Error("different seeds gave the same recover input")
	}
}

func TestChurnMix(t *testing.T) {
	g, _, err := newChurnGen(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		g.nextBatch(nil, 4096)
	}
	if d := g.deleteFrac(); d < 0.27 || d > 0.33 {
		t.Errorf("delete share %.3f, want ≈0.30", d)
	}
	if g.repeatFrac() <= 0 {
		t.Error("the hot set gave no within-batch repeats")
	}
}

// specNames are the metric names the benchmark was specified with.
var specNames = []string{
	"setup_s", "failed_frac", "ack_p50_ms", "ack_p99_ms", "ingest_ops_per_s", "read_p50_us", "read_p99_us",
	"heap_bytes_per_edge", "analytics_meps", "batch_p50_ms", "batch_p90_ms", "reopen_s", "catchup_s",
	"facade.push_ms_total", "facade.flush_ms_total", "facade.checkpoint_count", "facade.checkpoint_ms_p50",
	"facade.checkpoint_ms_max",
	"ingest.apply_ms_total", "ingest.queue_wait_ms_total", "ingest.flushes", "ingest.subbatch_ops_mean",
	"ingest.queue_depth_max", "ingest.retries", "ingest.rejected", "ingest.batch_repeat_frac",
	"wal.fsyncs", "wal.fsync_us_p50", "wal.fsync_us_p99", "wal.fsync_ms_total", "wal.bytes_per_op",
	"wal.segments_created", "wal.replay_s", "wal.replay_ops_per_s",
	"core.apply_ops_per_s", "core.write_amp_x", "core.cells_per_op", "core.workblocks_per_op", "core.promotions",
	"core.demotions", "core.snapshot_write_mb_per_s", "core.find_ns_quiet", "core.insert_meps",
	"core.snapshot_load_s",
	"engine.run_ms_total", "engine.process_ms", "engine.merge_ms", "engine.apply_ms", "engine.edges_processed",
	"engine.edges_per_s", "engine.full_iters", "engine.incr_iters", "engine.bfs.run_ms", "engine.cc.run_ms",
	"replication.bytes_shipped", "replication.frames", "replication.snapshots_installed",
	"replication.ops_applied", "replication.apply_ops_per_s", "replication.duplicates",
}

type benchSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	listed := map[string]bool{}
	for i, m := range spec.EndToEnd {
		listed[m.Name] = true
		if i >= len(endToEnd) || (metricSpec{m.Name, m.Unit, m.Better}) != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v does not match the reported metric", i, m)
		}
	}
	for i, m := range spec.PerLayer {
		listed[m.Name] = true
		if i >= len(perLayer) || (metricSpec{m.Name, m.Unit, m.Better}) != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v does not match the reported metric", i, m)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d+%d metrics, the benchmark reports %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for name := range listed {
		if !valid.MatchString(name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", name)
		}
	}
	for _, name := range specNames {
		if !listed[name] {
			t.Errorf("metric %s is missing from BENCHMARK.json", name)
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloads)
	}
}

func TestWorkloadsRecordCoversEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("workloads.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Workloads map[string]json.RawMessage `json:"workloads"`
		EndToEnd  map[string]string          `json:"end_to_end_metrics"`
		Layers    map[string]struct {
			Moves    []string `json:"moves"`
			Workload string   `json:"workload"`
		} `json:"per_layer_metrics"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if _, ok := rec.Workloads[w]; !ok {
			t.Errorf("workloads.json has no input record for %s", w)
		}
	}
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.Name] = true
		if rec.EndToEnd[m.Name] == "" {
			t.Errorf("workloads.json does not define %s", m.Name)
		}
	}
	for _, m := range perLayer {
		l, ok := rec.Layers[m.Name]
		if !ok {
			t.Errorf("workloads.json does not map %s to an end-to-end metric", m.Name)
			continue
		}
		if !slices.Contains(workloads, l.Workload) {
			t.Errorf("%s: unknown workload %q", m.Name, l.Workload)
		}
		for _, target := range l.Moves {
			if !e2e[target] {
				t.Errorf("%s moves %q, which is not an end-to-end metric", m.Name, target)
			}
		}
	}
}

// TestTinySmoke runs every workload at tiny scale, traced and untraced,
// and requires the correctness gate to pass and every metric to be there.
func TestTinySmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, report, err := measure(w, 5, 0, traced, true, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if res.opsFailed+res.failed != 0 {
				t.Errorf("%s traced=%v: %d ops and %d checks failed: %v", w, traced, res.opsFailed, res.failed, res.problems)
			}
			specs, values := endToEnd, res.e2e
			if traced {
				specs, values = perLayer[1:], res.layer // failed_frac is added by run
				if report == nil || len(report.Spans) == 0 || len(report.Layers) == 0 {
					t.Errorf("%s: traced run produced no spans or layer table", w)
				}
			}
			for _, m := range specs {
				if _, ok := values[m.Name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", w, traced, m.Name)
				}
			}
		}
	}
}

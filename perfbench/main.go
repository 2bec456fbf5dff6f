// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the GraphTinker facade with inputs generated from
// --seed, checks the results against an oracle, and prints every
// end-to-end metric (or, with --trace 1, every per-layer metric) followed
// by one JSON line:
//
//	bash perfbench/run.sh --workload durable-churn --seed 1 --seconds 40 --trace 0
//
// Workloads are durable-churn and stream-analytics. A run measures for
// --seconds in all, shared among three phases (durable churn, stream
// analytics and recover), the run's own phase at full size and the others
// at a smaller companion size, the phases taking turns in ten rounds, so
// every workload reports every metric; see workloads.json for the inputs
// and the layer each metric belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// checker counts verification checks and keeps the first few failures.
type checker struct {
	checked, failed uint64
	problems        []string
}

func (c *checker) expect(ok bool, format string, args ...any) {
	c.checked++
	if ok {
		return
	}
	c.failed++
	if len(c.problems) < 10 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// phaseResult is what one phase measured and verified.
type phaseResult struct {
	checker
	opsAttempted, opsFailed uint64
	e2e                     map[string]float64
	layer                   map[string]float64
	rows                    map[string]*layerRow
	checks                  []check
	notes                   []string // measured input properties, printed with the metrics
}

func newPhaseResult() *phaseResult {
	return &phaseResult{e2e: map[string]float64{}, layer: map[string]float64{}, rows: map[string]*layerRow{}}
}

// row adds work to a line of the per-layer table, named layer/activity.
func (r *phaseResult) row(layer, source string, count float64, busy, wait time.Duration) {
	l, ok := r.rows[layer]
	if !ok {
		l = &layerRow{Layer: layer, Source: source}
		r.rows[layer] = l
	}
	l.Count += count
	l.BusyMs += ms(busy)
	l.WaitMs += ms(wait)
}

// env is what every phase shares within one run.
type env struct {
	seed uint64
	work string  // directory for the run's durable directories
	tr   *tracer // nil in an untraced run
}

func (e *env) dir(name string) (string, error) {
	d := filepath.Join(e.work, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, nil
}

// phase is one of the three measured activities. setup builds its
// inputs and state (timing its own set-up), slice measures for about d,
// and finish computes its metrics, verifies and releases everything.
type phase interface {
	setup() error
	slice(d time.Duration) error
	finish() (*phaseResult, error)
}

// workloads are the runs the benchmark defines; phases are the measured
// activities every run interleaves, so every workload reports every
// metric. The recover phase runs inside both workloads rather than as a
// third: all runs of all workloads share one fixed time, and a third
// workload cut every run below what ack_p99_ms needs to hold still.
var (
	workloads = []string{"durable-churn", "stream-analytics"}
	phases    = []string{"durable-churn", "stream-analytics", "recover"}
)

// shares split a run's measured seconds among its phases. ack_p99_ms is
// the tail of about 100 acks a second, so the churn phase gets most of a
// run in both workloads; stream-analytics's own phase gets room for three
// or more whole passes at scale 16, its per-pass figures' unit.
var shares = map[string]map[string]float64{
	"durable-churn":    {"durable-churn": 0.70, "stream-analytics": 0.18, "recover": 0.12},
	"stream-analytics": {"durable-churn": 0.42, "stream-analytics": 0.50, "recover": 0.08},
}

const (
	// rounds is how many slices each phase's measured time is cut into.
	// The phases take turns, so every metric samples the whole run rather
	// than one stretch of it, which evens out a shared machine's slow
	// spells.
	rounds = 10
)

// plan fixes the phases of one run, keyed like phases, and how long each
// measures.
type plan struct {
	phases map[string]phase
	budget map[string]time.Duration
}

// planFor sizes the phases of a workload: its own phase at full size with
// several timed set-ups and the heap weighed, the others at companion
// size, each measuring its share of seconds. tiny shrinks everything for
// the self-tests.
func planFor(workload string, seconds float64, tiny bool, e *env) plan {
	churn := churnCfg{scale: 17, setups: 1, batchOps: 4096, ckptEvery: 1 << 20}
	analytics := analyticsCfg{scale: 15, setups: 1, batchSize: 8192}
	recover := recoverCfg{scale: 15}
	switch workload {
	case "durable-churn":
		churn.setups, churn.weigh = 3, true
	case "stream-analytics":
		analytics = analyticsCfg{scale: 16, setups: 50, batchSize: 8192, weigh: true}
	}
	if tiny {
		churn.scale, churn.ckptEvery = 9, 2*4096
		analytics.scale, analytics.batchSize = 10, 512
		recover.scale = 10
		seconds = 0
	}
	pl := plan{
		phases: map[string]phase{
			"durable-churn":    &churnPhase{c: churn, e: e},
			"stream-analytics": &analyticsPhase{c: analytics, e: e},
			"recover":          &recoverPhase{c: recover, e: e},
		},
		budget: map[string]time.Duration{},
	}
	for _, name := range phases {
		pl.budget[name] = time.Duration(seconds * shares[workload][name] * float64(time.Second))
	}
	return pl
}

// runWorkload sets every phase of the plan up, lets them take turns for
// rounds slices, and merges their results; the workload's own phase
// supplies setup_s and heap_bytes_per_edge.
func runWorkload(workload string, pl plan) (*phaseResult, error) {
	for _, name := range phases {
		if err := pl.phases[name].setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
	}
	for i := 0; i < rounds; i++ {
		for _, name := range phases {
			settle()
			if err := pl.phases[name].slice(pl.budget[name] / rounds); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	out := newPhaseResult()
	var own *phaseResult
	for _, name := range phases {
		r, err := pl.phases[name].finish()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if name == workload {
			own = r
		}
		out.merge(r)
	}
	out.e2e["setup_s"] = own.e2e["setup_s"]
	out.e2e["heap_bytes_per_edge"] = own.e2e["heap_bytes_per_edge"]
	return out, nil
}

// merge adds r's counts, metrics, table rows and checks to out. Metrics
// two phases both report keep the first phase's value.
func (out *phaseResult) merge(r *phaseResult) {
	out.checked += r.checked
	out.failed += r.failed
	out.problems = append(out.problems, r.problems...)
	out.opsAttempted += r.opsAttempted
	out.opsFailed += r.opsFailed
	for k, v := range r.e2e {
		if _, ok := out.e2e[k]; !ok {
			out.e2e[k] = v
		}
	}
	for k, v := range r.layer {
		out.layer[k] = v
	}
	for _, l := range r.rows {
		out.row(l.Layer, l.Source, l.Count, 0, 0)
		out.rows[l.Layer].BusyMs += l.BusyMs
		out.rows[l.Layer].WaitMs += l.WaitMs
	}
	out.checks = append(out.checks, r.checks...)
	out.notes = append(out.notes, r.notes...)
}

// headline is the end-to-end metric the tracing overhead is read from.
var headline = map[string]string{
	"durable-churn":    "ack_p50_ms",
	"stream-analytics": "batch_p50_ms",
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: durable-churn or stream-analytics")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 40, "measured seconds of the run, shared among its phases")
	trace := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for durable directories and trace files")
	flag.Parse()
	// The benchmark's own inputs and oracles keep about a gigabyte live.
	// Collecting only when the heap has grown fourfold, or nears 3 GiB,
	// keeps their marking out of most measured calls; settle still
	// collects before every slice.
	debug.SetGCPercent(400)
	debug.SetMemoryLimit(3 << 30)
	if !slices.Contains(workloads, *workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloads)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(*out, "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	res, report, err := measure(*workload, *seed, *seconds, *trace == 1, false, work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	attempted := res.opsAttempted + res.checked
	failed := res.opsFailed + res.failed
	res.layer["failed_frac"] = frac(failed, attempted)

	specs, values := endToEnd, res.e2e
	if report != nil {
		specs, values = perLayer, res.layer
		report.printTable(os.Stdout)
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", *workload, *seed))
		if err := report.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Printf("spans and per-layer table written to %s\n", path)
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(specs))
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", m.Name)
			return 1
		}
		metrics[m.Name] = metric{v, m.Unit}
		fmt.Printf("%-34s %16.6g %s\n", m.Name, v, m.Unit)
	}
	correct := failed == 0
	fmt.Printf("correctness: %d of %d ops and checks failed (failed_frac %g): ", failed, attempted, res.layer["failed_frac"])
	if correct {
		fmt.Println("PASS")
	} else {
		fmt.Println("FAIL")
		for _, p := range res.problems {
			fmt.Fprintln(os.Stderr, "  broke:", p)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// measure runs the workload untraced, or for a traced run first untraced
// for half of every phase's measured time and then traced for the other
// half, so the tracing overhead is the difference between the two.
func measure(workload string, seed uint64, seconds float64, traced, tiny bool, work string) (*phaseResult, *traceReport, error) {
	e := &env{seed: seed, work: work}
	if !traced {
		res, err := runWorkload(workload, planFor(workload, seconds, tiny, e))
		return res, nil, err
	}
	base, err := runWorkload(workload, planFor(workload, seconds/2, tiny, e))
	if err != nil {
		return nil, nil, err
	}
	te := &env{seed: seed, work: work, tr: newTracer()}
	res, err := runWorkload(workload, planFor(workload, seconds/2, tiny, te))
	if err != nil {
		return nil, nil, err
	}
	res.checked += base.checked
	res.failed += base.failed
	res.problems = append(res.problems, base.problems...)
	res.opsAttempted += base.opsAttempted
	res.opsFailed += base.opsFailed

	key := headline[workload]
	o := overhead{Metric: key, Traced: res.e2e[key], Untraced: base.e2e[key]}
	if o.Untraced <= 0 {
		return nil, nil, fmt.Errorf("untraced %s is %g", key, o.Untraced)
	}
	o.Pct = 100 * (o.Traced/o.Untraced - 1)
	res.layer["trace.overhead_pct"] = o.Pct
	for _, c := range res.checks {
		switch c.Name {
		case "ack":
			res.layer["trace.reconcile_ack_err_pct"] = c.ErrPct
		case "reopen":
			res.layer["trace.reconcile_reopen_err_pct"] = c.ErrPct
		}
	}
	report := &traceReport{
		Workload: workload,
		Seed:     seed,
		Checks:   res.checks,
		Overhead: o,
		Spans:    te.tr.spans,
	}
	for _, layer := range []string{"facade", "ingest", "wal", "core", "engine", "replication"} {
		var names []string
		for name := range res.rows {
			if strings.HasPrefix(name, layer+"/") {
				names = append(names, name)
			}
		}
		slices.Sort(names)
		for _, name := range names {
			report.Layers = append(report.Layers, *res.rows[name])
		}
	}
	return res, report, nil
}

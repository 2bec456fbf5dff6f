package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// request share a parent: an ack span is the parent of its push and flush.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	next  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// reserve hands out a span id before the span ends, so children can name
// their parent.
func (t *tracer) reserve() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span under id (0 allocates a fresh id).
func (t *tracer) record(id, parent int, layer, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.reserve()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// layerRow is one line of the per-layer table: how much work the layer
// did, how long it was busy and how long work waited for it.
type layerRow struct {
	Layer  string  `json:"layer"`
	Count  float64 `json:"count"`
	BusyMs float64 `json:"busy_ms"`
	WaitMs float64 `json:"wait_ms"`
	Source string  `json:"source"`
}

// check is one reconciliation of span time against an end-to-end total.
type check struct {
	Name       string  `json:"name"`
	PartsS     float64 `json:"parts_s"`
	TotalS     float64 `json:"total_s"`
	ErrPct     float64 `json:"err_pct"`
	TolPct     float64 `json:"tolerance_pct"`
	Reconciled bool    `json:"reconciled"`
}

func newCheck(name string, parts, total, tolPct float64) check {
	c := check{Name: name, PartsS: parts, TotalS: total, TolPct: tolPct}
	if total > 0 {
		c.ErrPct = 100 * (parts - total) / total
	}
	c.Reconciled = total > 0 && c.ErrPct <= tolPct && c.ErrPct >= -tolPct
	return c
}

// overhead compares the run's headline metric traced and untraced.
type overhead struct {
	Metric   string  `json:"metric"`
	Traced   float64 `json:"traced"`
	Untraced float64 `json:"untraced"`
	Pct      float64 `json:"pct"`
}

// traceReport is everything a traced run writes out at its end.
type traceReport struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Layers   []layerRow `json:"layers"`
	Checks   []check    `json:"reconciliation"`
	Overhead overhead   `json:"tracing_overhead"`
	Spans    []span     `json:"spans"`
}

func (r *traceReport) printTable(w io.Writer) {
	fmt.Fprintf(w, "per-layer table (%s, seed %d)\n", r.Workload, r.Seed)
	fmt.Fprintf(w, "  %-22s %12s %12s %12s  %s\n", "layer/activity", "count", "busy_ms", "wait_ms", "source")
	for _, l := range r.Layers {
		fmt.Fprintf(w, "  %-22s %12.0f %12.3f %12.3f  %s\n", l.Layer, l.Count, l.BusyMs, l.WaitMs, l.Source)
	}
	for _, c := range r.Checks {
		verdict := "reconciled"
		if !c.Reconciled {
			verdict = "FINDING: does not reconcile"
		}
		fmt.Fprintf(w, "  reconcile %-22s parts %.4fs total %.4fs err %+.2f%% (tolerance ±%.0f%%): %s\n",
			c.Name, c.PartsS, c.TotalS, c.ErrPct, c.TolPct, verdict)
	}
	o := r.Overhead
	fmt.Fprintf(w, "  tracing overhead on %s: traced %.6g vs untraced %.6g: %+.2f%%\n", o.Metric, o.Traced, o.Untraced, o.Pct)
}

func (r *traceReport) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(r); err != nil {
		_ = f.Close() // already failing with the encode error
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

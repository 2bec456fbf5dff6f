package main

import (
	"fmt"
	"time"

	gt "graphtinker"
)

// analyticsCfg sizes the stream-analytics phase.
type analyticsCfg struct {
	scale     int  // input is RMAT scale × 16 edges, inserted from empty
	setups    int  // set-ups timed
	batchSize int  // edges per ApplyBatch
	weigh     bool // measure heap_bytes_per_edge (the run's own phase)
}

// validateEvery is how many batches apart BFS and CC are validated.
const validateEvery = 16

// newAnalyticsSession is a session with BFS and CC attached under the
// default hybrid policy.
func newAnalyticsSession(root uint64) (*gt.Session, error) {
	s, err := gt.NewSession(gt.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if err := s.Attach("bfs", gt.BFS(root), gt.DefaultAttachmentPolicy()); err != nil {
		return nil, err
	}
	if err := s.Attach("cc", gt.CC(), gt.DefaultAttachmentPolicy()); err != nil {
		return nil, err
	}
	return s, nil
}

// validateAnalytics audits both programs' values against the live graph.
func validateAnalytics(c *checker, s *gt.Session, root uint64, batch int) {
	edges := s.Graph().Edges()
	bfs, _ := s.Engine("bfs")
	cc, _ := s.Engine("cc")
	v := gt.ValidateBFS(bfs.Values(), edges, root)
	c.expect(len(v) == 0, "batch %d: BFS invalid: %v", batch, v)
	v = gt.ValidateCC(cc.Values(), edges)
	c.expect(len(v) == 0, "batch %d: CC invalid: %v", batch, v)
}

// engineTotals sums the RunResults of a phase.
type engineTotals struct {
	run, process, merge, apply time.Duration
	byProgram                  map[string]time.Duration
	runs, edges                uint64
	full, incr                 int
}

func (t *engineTotals) add(name string, rr gt.RunResult) {
	t.runs++
	t.run += rr.Duration
	t.byProgram[name] += rr.Duration
	t.edges += rr.EdgesProcessed
	t.full += rr.FullIterations
	t.incr += rr.IncrementalIterations
	for _, it := range rr.Iterations {
		t.process += it.ProcessDuration
		t.merge += it.MergeDuration
		t.apply += it.ApplyDuration
	}
}

// analyticsPhase is the stream-analytics phase: passes that apply the
// input from an empty graph, batch by batch, with BFS and CC attached.
type analyticsPhase struct {
	c  analyticsCfg
	e  *env
	r  *phaseResult
	in *analyticsInput
	s  *gt.Session
	bi int // next batch of the current pass

	lat              []time.Duration
	passStart        int // index in lat of the current pass's first batch
	passP50, passP90 []float64
	passWall         time.Duration
	edgeSum          float64
	passMeps         []float64
	applied          uint64
	eng              engineTotals
}

func (p *analyticsPhase) setup() error {
	p.r = newPhaseResult()
	p.eng = engineTotals{byProgram: map[string]time.Duration{}}
	var err error
	if p.in, err = newAnalyticsInput(p.c.scale, p.c.batchSize, p.e.seed); err != nil {
		return err
	}
	// A set-up is the program work before the stream flows: a session
	// with both programs attached, and the first batch, on which they
	// make their first full run.
	var setups []float64
	settle()
	for i := 0; i < p.c.setups; i++ {
		t0 := time.Now()
		s, err := newAnalyticsSession(p.in.root)
		if err != nil {
			return err
		}
		out := s.ApplyBatch(gt.Batch{Insert: p.in.batches[0]})
		setups = append(setups, time.Since(t0).Seconds())
		p.r.expect(len(out.Runs) == 2, "set-up batch ran %d programs, want 2", len(out.Runs))
	}
	p.r.e2e["setup_s"] = median(setups)
	p.bi = len(p.in.batches) // the first slice starts a pass on a fresh session
	return nil
}

// slice applies batches for about d (at least one), starting a new pass
// from an empty graph after the last batch of each.
func (p *analyticsPhase) slice(d time.Duration) error {
	start := time.Now()
	for first := true; first || time.Since(start) < d; first = false {
		if err := p.batch(); err != nil {
			return err
		}
	}
	return nil
}

func (p *analyticsPhase) batch() error {
	r, e := p.r, p.e
	if p.bi == len(p.in.batches) {
		var err error
		if p.s, err = newAnalyticsSession(p.in.root); err != nil {
			return err
		}
		p.bi, p.edgeSum, p.passWall, p.passStart = 0, 0, 0, len(p.lat)
	}
	b, bi := p.in.batches[p.bi], p.bi
	r.opsAttempted += uint64(len(b))
	t0 := time.Now()
	out := p.s.ApplyBatch(gt.Batch{Insert: b})
	t1 := time.Now()
	e.tr.record(0, 0, "facade", "ApplyBatch", t0, t1)
	p.lat = append(p.lat, t1.Sub(t0))
	p.passWall += t1.Sub(t0)
	p.edgeSum += float64(p.s.Graph().NumEdges())
	p.applied += uint64(len(b))
	r.expect(len(out.Runs) == 2, "batch %d ran %d programs, want 2", bi, len(out.Runs))
	for name, rr := range out.Runs {
		p.eng.add(name, rr)
		r.expect(rr.Converged, "batch %d: %s did not converge", bi, name)
	}
	p.bi++
	last := p.bi == len(p.in.batches)
	if p.bi%validateEvery == 0 || last {
		validateAnalytics(&r.checker, p.s, p.in.root, bi)
	}
	if last {
		got := p.s.Graph().NumEdges()
		r.expect(got > 0 && got <= uint64(p.in.edges), "graph holds %d edges from %d inserts", got, p.in.edges)
		p.passMeps = append(p.passMeps, p.edgeSum/p.passWall.Seconds()/1e6)
		pass := p.lat[p.passStart:]
		p.passP50 = append(p.passP50, ms(quantile(pass, 0.50)))
		p.passP90 = append(p.passP90, ms(quantile(pass, 0.90)))
	}
	return nil
}

func (p *analyticsPhase) finish() (*phaseResult, error) {
	// Complete the pass in flight: analytics_meps is a whole-pass figure.
	for p.bi < len(p.in.batches) {
		if err := p.batch(); err != nil {
			return nil, err
		}
	}
	r, eng := p.r, &p.eng
	batchSum := sumDur(p.lat)
	r.e2e["analytics_meps"] = median(p.passMeps)
	r.e2e["batch_p50_ms"] = median(p.passP50)
	r.e2e["batch_p90_ms"] = median(p.passP90)

	r.layer["core.insert_meps"] = float64(p.applied) / (batchSum - eng.run).Seconds() / 1e6
	r.layer["engine.run_ms_total"] = ms(eng.run)
	r.layer["engine.process_ms"] = ms(eng.process)
	r.layer["engine.merge_ms"] = ms(eng.merge)
	r.layer["engine.apply_ms"] = ms(eng.apply)
	r.layer["engine.edges_processed"] = float64(eng.edges)
	r.layer["engine.edges_per_s"] = float64(eng.edges) / eng.run.Seconds()
	r.layer["engine.full_iters"] = float64(eng.full)
	r.layer["engine.incr_iters"] = float64(eng.incr)
	r.layer["engine.bfs.run_ms"] = ms(eng.byProgram["bfs"])
	r.layer["engine.cc.run_ms"] = ms(eng.byProgram["cc"])
	r.row("facade/ApplyBatch", "spans: ApplyBatch self time (graph update)", float64(len(p.lat)), batchSum-eng.run, 0)
	r.row("engine/runs", "RunResult: program runs", float64(eng.runs), eng.run, 0)

	edges := p.s.Graph().NumEdges()
	if p.c.weigh {
		r.e2e["heap_bytes_per_edge"] = bytesPerEdge(edges, func() { p.s = nil })
	}
	if edges == 0 {
		return nil, fmt.Errorf("analytics graph is empty")
	}
	return r, nil
}

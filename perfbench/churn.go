package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"time"

	gt "graphtinker"
)

// churnCfg sizes the durable-churn phase.
type churnCfg struct {
	scale     int  // prefill is RMAT scale × 16 edges
	setups    int  // set-ups timed; the last one is measured
	batchOps  int  // ops per acked batch
	ckptEvery int  // acked ops between explicit checkpoints
	weigh     bool // measure heap_bytes_per_edge (the run's own phase)
}

const (
	prefillChunk = 1 << 16
	readBurst    = 64               // FindEdge calls per reader burst
	readPause    = time.Millisecond // reader idle time between bursts
	verifySample = 2000
)

// churnRecorders are the instruments a traced churn phase attaches.
type churnRecorders struct {
	stream *gt.StreamRecorder
	wal    *gt.WALRecorder
	upd    *gt.UpdateRecorder
}

func openStream(e *env, dir string, recs *churnRecorders) (*gt.DurableStream, error) {
	var opts gt.DurableStreamOptions
	if recs != nil {
		opts.Pipeline.Recorder = recs.stream
		opts.Durability.Recorder = recs.wal
	}
	t0 := time.Now()
	ds, err := gt.OpenDurableStream(gt.DefaultConfig(), dir, opts)
	e.tr.record(0, 0, "facade", "OpenDurableStream", t0, time.Now())
	return ds, err
}

// setupChurn builds a durable store holding the prefill and checkpoints
// it; it returns the open stream and its directory.
func setupChurn(e *env, name string, prefill []gt.Update, recs *churnRecorders) (*gt.DurableStream, string, error) {
	dir, err := e.dir(name)
	if err != nil {
		return nil, "", err
	}
	ds, err := openStream(e, dir, recs)
	if err != nil {
		return nil, "", err
	}
	if err := pushChunks(ds, prefill); err != nil {
		_, _ = ds.Close() // already failing with the push error
		return nil, "", fmt.Errorf("prefill: %w", err)
	}
	if err := ds.Checkpoint(); err != nil {
		_, _ = ds.Close() // already failing with the checkpoint error
		return nil, "", fmt.Errorf("prefill checkpoint: %w", err)
	}
	return ds, dir, nil
}

// pushChunks admits ops in prefillChunk-sized batches.
func pushChunks(ds *gt.DurableStream, ops []gt.Update) error {
	for i := 0; i < len(ops); i += prefillChunk {
		if err := ds.PushBatch(ops[i:min(i+prefillChunk, len(ops))]); err != nil {
			return err
		}
	}
	return nil
}

type readerResult struct {
	lat      []time.Duration
	misses   uint64
	depthMax int64
}

// readLoop issues closed-loop FindEdge bursts on edges that must be
// present until stop closes, idling readPause between bursts. A non-nil
// depth is sampled after every burst.
func readLoop(store *gt.Parallel, keys []uint64, seed uint64, depth func() int64, stop <-chan struct{}) readerResult {
	rng := rand.New(rand.NewPCG(seed, 0x4ead))
	res := readerResult{lat: make([]time.Duration, 0, 1<<20)}
	for {
		select {
		case <-stop:
			return res
		default:
		}
		for i := 0; i < readBurst; i++ {
			src, dst := keyEdge(keys[rng.IntN(len(keys))])
			t0 := time.Now()
			_, ok := store.FindEdge(src, dst)
			res.lat = append(res.lat, time.Since(t0))
			if !ok {
				res.misses++
			}
		}
		if depth != nil {
			res.depthMax = max(res.depthMax, depth())
		}
		time.Sleep(readPause)
	}
}

// churnPhase is the durable-churn phase: one closed-loop producer of
// acked batches and one FindEdge reader over a durable stream.
type churnPhase struct {
	c       churnCfg
	e       *env
	r       *phaseResult
	gen     *churnGen
	prefill []gt.Update
	recs    *churnRecorders
	ds      *gt.DurableStream
	dir     string
	buf     []gt.Update

	s0  gt.StreamRecorderSnapshot
	w0  gt.WALRecorderSnapshot
	st0 gt.Stats

	acks, reads               rounded
	ckpts                     []time.Duration
	roundRates                []float64 // acked ops per second of ack and checkpoint time, per round
	wall, genT, pushT, flushT time.Duration
	depthMax                  int64
	acked                     uint64
	batches, sinceCkpt        int
	broken                    bool
}

func (p *churnPhase) setup() error {
	p.r = newPhaseResult()
	var err error
	if p.gen, p.prefill, err = newChurnGen(p.c.scale, p.e.seed); err != nil {
		return err
	}
	var setups []float64
	for i := 0; i < p.c.setups; i++ {
		if p.ds != nil {
			if _, err := p.ds.Close(); err != nil {
				return err
			}
			if err := os.RemoveAll(p.dir); err != nil {
				return err
			}
		}
		if p.e.tr != nil {
			p.recs = &churnRecorders{gt.NewStreamRecorder(), gt.NewWALRecorder(), gt.NewUpdateRecorder()}
		}
		settle()
		t0 := time.Now()
		if p.ds, p.dir, err = setupChurn(p.e, fmt.Sprintf("churn-%d", i), p.prefill, p.recs); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	p.r.e2e["setup_s"] = median(setups)
	if p.recs != nil {
		p.ds.Store().Instrument(p.recs.upd)
		p.s0, p.w0 = p.recs.stream.Snapshot(), p.recs.wal.Snapshot()
	}
	p.st0 = p.ds.Store().Stats()
	p.buf = make([]gt.Update, 0, p.c.batchOps)
	return nil
}

// slice pushes acked batches for about d (at least one) with the reader
// running beside the producer.
func (p *churnPhase) slice(d time.Duration) error {
	if p.broken {
		return nil
	}
	store := p.ds.Store()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var rd readerResult
	var depth func() int64
	if p.recs != nil {
		depth = p.recs.stream.QueueDepth.Load
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rd = readLoop(store, p.gen.pinned, p.e.seed+uint64(p.batches), depth, stop)
	}()
	p.acks.startRound()
	p.reads.startRound()
	acked0 := p.acked
	start := time.Now()
	for first := true; first || time.Since(start) < d; first = false {
		if !p.batch() {
			break
		}
	}
	p.wall += time.Since(start)
	close(stop)
	wg.Wait()
	busy := sumDur(p.acks.all[p.acks.starts[len(p.acks.starts)-1]:])
	p.roundRates = append(p.roundRates, float64(p.acked-acked0)/busy.Seconds())
	p.reads.all = append(p.reads.all, rd.lat...)
	p.depthMax = max(p.depthMax, rd.depthMax)
	p.r.opsAttempted += uint64(len(rd.lat))
	p.r.opsFailed += rd.misses
	if rd.misses > 0 {
		p.r.expect(false, "%d reads of pinned edges missed", rd.misses)
	}
	return nil
}

// batch generates, pushes and acks one batch, then checkpoints when due.
// It reports false once the stream has failed.
func (p *churnPhase) batch() bool {
	e, r := p.e, p.r
	tg := time.Now()
	p.buf = p.gen.nextBatch(p.buf, p.c.batchOps)
	r.opsAttempted += uint64(len(p.buf))
	ackID := e.tr.reserve()
	t0 := time.Now()
	e.tr.record(0, 0, "bench", "generate batch", tg, t0)
	p.genT += t0.Sub(tg)
	err := p.ds.PushBatch(p.buf)
	t1 := time.Now()
	p.sampleDepth()
	if err == nil {
		err = p.ds.Flush()
	}
	t2 := time.Now()
	if err != nil {
		r.opsFailed += uint64(len(p.buf))
		r.expect(false, "batch %d not acked: %v", p.batches, err)
		p.broken = true
		return false
	}
	e.tr.record(0, ackID, "facade", "PushBatch", t0, t1)
	e.tr.record(0, ackID, "facade", "Flush", t1, t2)
	p.pushT += t1.Sub(t0)
	p.flushT += t2.Sub(t1)
	p.acked += uint64(len(p.buf))
	p.batches++
	// A due checkpoint is charged to the ack that triggers it: the
	// producer cannot send its next batch until the checkpoint returns.
	t3 := t2
	if p.sinceCkpt += len(p.buf); p.sinceCkpt >= p.c.ckptEvery {
		p.sinceCkpt = 0
		err := p.ds.Checkpoint()
		t3 = time.Now()
		r.expect(err == nil, "checkpoint after batch %d: %v", p.batches, err)
		e.tr.record(0, ackID, "facade", "Checkpoint", t2, t3)
		p.ckpts = append(p.ckpts, t3.Sub(t2))
	}
	e.tr.record(ackID, 0, "bench", "ack", t0, t3)
	p.acks.all = append(p.acks.all, t3.Sub(t0))
	return true
}

// sampleDepth folds the pipeline's queue-depth gauge into depthMax in a
// traced run. The producer samples it after every PushBatch, and the
// reader between its bursts, while the pipeline is applying.
func (p *churnPhase) sampleDepth() {
	if p.recs != nil {
		p.depthMax = max(p.depthMax, p.recs.stream.QueueDepth.Load())
	}
}

func (p *churnPhase) finish() (*phaseResult, error) {
	r := p.r
	defer os.RemoveAll(p.dir)
	r.e2e["ack_p50_ms"] = p.acks.perRound(func(s []time.Duration) float64 { return ms(quantile(s, 0.50)) })
	r.e2e["ack_p99_ms"] = p.acks.perRound(func(s []time.Duration) float64 { return ms(quantile(s, 0.99)) })
	r.e2e["ingest_ops_per_s"] = median(p.roundRates)
	r.e2e["read_p50_us"] = p.reads.perRound(func(s []time.Duration) float64 { return us(quantile(s, 0.50)) })
	r.e2e["read_p99_us"] = p.reads.perRound(func(s []time.Duration) float64 { return us(quantile(s, 0.99)) })
	r.notes = append(r.notes, fmt.Sprintf("input durable-churn (scale %d): %d batches of %d ops, within-batch repeat share %.4f, delete share %.4f",
		p.c.scale, p.batches, p.c.batchOps, p.gen.repeatFrac(), p.gen.deleteFrac()))

	if p.recs != nil {
		if err := p.layers(); err != nil {
			return nil, err
		}
	}

	var closeErr error
	release := func() {
		_, closeErr = p.ds.Close()
		p.ds = nil
	}
	if p.c.weigh {
		r.e2e["heap_bytes_per_edge"] = bytesPerEdge(p.ds.Store().NumEdges(), release)
	} else {
		release()
	}
	if closeErr != nil {
		return nil, fmt.Errorf("close: %w", closeErr)
	}

	// The correctness gate: everything acked survives close and reopen.
	re, err := openStream(p.e, p.dir, nil)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	p.gen.verify(&r.checker, re.Store(), verifySample, p.e.seed)
	if _, err := re.Close(); err != nil {
		return nil, fmt.Errorf("close after reopen: %w", err)
	}
	return r, nil
}

// layers fills the per-layer metrics of a traced churn phase from the
// recorders and from probes run while the producer and reader are idle.
func (p *churnPhase) layers() error {
	r, gen, recs, ds := p.r, p.gen, p.recs, p.ds
	s0, w0, st0 := p.s0, p.w0, p.st0
	s1, w1, st1, u1 := recs.stream.Snapshot(), recs.wal.Snapshot(), ds.Store().Stats(), recs.upd.Snapshot()

	r.layer["facade.push_ms_total"] = ms(p.pushT)
	r.layer["facade.flush_ms_total"] = ms(p.flushT)
	r.layer["facade.checkpoint_count"] = float64(len(p.ckpts))
	r.layer["facade.checkpoint_ms_p50"] = ms(quantile(p.ckpts, 0.50))
	r.layer["facade.checkpoint_ms_max"] = ms(quantile(p.ckpts, 1))
	r.layer["ingest.queue_depth_max"] = float64(p.depthMax)
	r.row("facade/ack", "spans: push+checkpoint busy, flush wait", float64(len(p.acks.all)), p.pushT+sumDur(p.ckpts), p.flushT)
	r.checks = append(r.checks, newCheck("ack", (p.genT+p.pushT+p.flushT+sumDur(p.ckpts)).Seconds(), p.wall.Seconds(), 5))

	apply := histDiff(s1.ApplyLatencyNs, s0.ApplyLatencyNs)
	flushLat := histDiff(s1.FlushLatencyNs, s0.FlushLatencyNs)
	subBatch := histDiff(s1.BatchSize, s0.BatchSize)
	r.layer["ingest.apply_ms_total"] = float64(apply.Sum) / 1e6
	r.layer["ingest.queue_wait_ms_total"] = (float64(flushLat.Sum) - float64(apply.Sum)) / 1e6
	r.layer["ingest.flushes"] = float64(s1.Flushes - s0.Flushes)
	r.layer["ingest.subbatch_ops_mean"] = subBatch.Mean()
	r.layer["ingest.retries"] = float64(s1.Retries - s0.Retries)
	r.layer["ingest.rejected"] = float64(s1.Rejected - s0.Rejected)
	r.layer["ingest.batch_repeat_frac"] = gen.repeatFrac()
	r.row("ingest/apply", "StreamRecorder: apply busy, queue wait", float64(s1.Flushes-s0.Flushes),
		time.Duration(apply.Sum), time.Duration(flushLat.Sum-apply.Sum))

	fs := histDiff(w1.FsyncLatencyNs, w0.FsyncLatencyNs)
	r.layer["wal.fsyncs"] = float64(w1.Fsyncs - w0.Fsyncs)
	r.layer["wal.fsync_us_p50"] = float64(fs.Quantile(0.50)) / 1e3
	r.layer["wal.fsync_us_p99"] = float64(fs.Quantile(0.99)) / 1e3
	r.layer["wal.fsync_ms_total"] = float64(fs.Sum) / 1e6
	r.layer["wal.bytes_per_op"] = frac(w1.AppendedBytes-w0.AppendedBytes, w1.AppendedOps-w0.AppendedOps)
	r.layer["wal.segments_created"] = float64(w1.SegmentsCreated - w0.SegmentsCreated)
	r.row("wal/fsync", "WALRecorder: fsync busy", float64(w1.Fsyncs-w0.Fsyncs), time.Duration(fs.Sum), 0)

	ops := (st1.Inserts - st0.Inserts) + (st1.Updates - st0.Updates) + (st1.Deletes - st0.Deletes) + (st1.Finds - st0.Finds)
	r.layer["core.apply_ops_per_s"] = float64(subBatch.Sum) / (float64(apply.Sum) / 1e9)
	r.layer["core.cells_per_op"] = frac(st1.CellsInspected-st0.CellsInspected, ops)
	r.layer["core.workblocks_per_op"] = frac(st1.WorkblocksRetrieved-st0.WorkblocksRetrieved, ops)
	r.layer["core.promotions"] = float64(st1.Promotions - st0.Promotions)
	r.layer["core.demotions"] = float64(st1.Demotions - st0.Demotions)
	r.row("core/apply", "Parallel.Instrument: per-op insert/delete/find time", float64(ops),
		time.Duration(u1.InsertLatencyNs.Sum+u1.DeleteLatencyNs.Sum+u1.FindLatencyNs.Sum), 0)

	// Probes with no writer running.
	store := ds.Store()
	n := min(len(gen.pinned), 1<<17)
	t0 := time.Now()
	hits := 0
	for _, k := range gen.pinned[:n] {
		if _, ok := store.FindEdge(keyEdge(k)); ok {
			hits++
		}
	}
	r.layer["core.find_ns_quiet"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	r.expect(hits == n, "quiet FindEdge pass: %d of %d pinned edges found", hits, n)

	var cw countWriter
	t0 = time.Now()
	if err := store.WriteSnapshot(&cw); err != nil {
		return fmt.Errorf("snapshot probe: %w", err)
	}
	r.layer["core.snapshot_write_mb_per_s"] = float64(cw) / 1e6 / time.Since(t0).Seconds()

	amp, err := writeAmpProbe(p.prefill[:min(len(p.prefill), 1<<18)], p.c.batchOps)
	if err != nil {
		return err
	}
	r.layer["core.write_amp_x"] = amp
	return nil
}

type countWriter int64

func (w *countWriter) Write(p []byte) (int, error) {
	*w += countWriter(len(p))
	return len(p), nil
}

// writeAmpProbe times one op stream applied in batches to a 1-shard
// Parallel (seqlock, two replicas) and op by op to a plain Graph, and
// returns the ratio of the median times over three repetitions.
func writeAmpProbe(ops []gt.Update, batch int) (float64, error) {
	var par, plain []float64
	for rep := 0; rep < 3; rep++ {
		p, err := gt.NewParallel(gt.DefaultConfig(), 1)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for i := 0; i < len(ops); i += batch {
			p.ApplyShard(0, ops[i:min(i+batch, len(ops))])
		}
		par = append(par, time.Since(t0).Seconds())
		p.Close()

		g, err := gt.New(gt.DefaultConfig())
		if err != nil {
			return 0, err
		}
		t0 = time.Now()
		for _, op := range ops {
			if op.Del {
				g.DeleteEdge(op.Src, op.Dst)
			} else {
				g.InsertEdge(op.Src, op.Dst, op.Weight)
			}
		}
		plain = append(plain, time.Since(t0).Seconds())
	}
	return median(par) / median(plain), nil
}

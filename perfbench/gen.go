package main

import (
	"fmt"
	"math/rand/v2"

	gt "graphtinker"
	"graphtinker/internal/rmat"
)

// Every input is generated here from the --seed argument; the program
// under test only ever sees the generated ops.

// subSeed derives an independent stream seed for one input of a run.
func subSeed(seed, tag uint64) uint64 { return (seed+1)*0x9E3779B97F4A7C15 ^ tag*0xBF58476D1CE4E5B9 }

// edgeKey packs an edge's endpoints; RMAT vertex ids stay below 2^32.
func edgeKey(src, dst uint64) uint64 { return src<<32 | dst }

func keyEdge(k uint64) (src, dst uint64) { return k >> 32, k & 0xffffffff }

// rmatEdges materializes a Graph500 RMAT graph with 2^scale vertices and
// edgeFactor·2^scale edges.
func rmatEdges(scale int, edgeFactor, seed uint64) ([]rmat.Edge, error) {
	edges, err := rmat.Generate(rmat.Graph500Params(scale, edgeFactor, seed))
	if err != nil {
		return nil, fmt.Errorf("rmat scale %d: %w", scale, err)
	}
	return edges, nil
}

// Churn mix, in percent of ops: inserts of fresh RMAT edges, deletes of
// live edges, and the rest weight updates on the hot set.
const (
	churnInsertPct = 50
	churnDeletePct = 30
	hotSetSize     = 256
	pinEvery       = 16   // one distinct prefill edge in pinEvery is pinned
	recentDeletes  = 4096 // deleted keys kept for the absence check
)

// oracleEntry is the expected weight of one live edge plus its index in
// churnGen.live, or -1 for a pinned edge that is never deleted.
type oracleEntry struct {
	w   float32
	idx int32
}

// churnGen produces the durable-churn op stream and tracks the exact
// edge set it should leave behind.
type churnGen struct {
	rng    *rand.Rand
	fresh  *rmat.Generator
	oracle map[uint64]oracleEntry
	live   []uint64 // deletable keys
	pinned []uint64 // present since prefill and never deleted
	hot    []uint64 // pinned keys the weight updates target
	recent []uint64 // ring of recently deleted keys
	seen   map[uint64]struct{}

	ops, repeats, deletes uint64 // totals over every generated batch
}

// newChurnGen generates the prefill (RMAT scale × 16, inserted in order)
// and a stream generator positioned after it.
func newChurnGen(scale int, seed uint64) (*churnGen, []gt.Update, error) {
	edges, err := rmatEdges(scale, 16, subSeed(seed, 1))
	if err != nil {
		return nil, nil, err
	}
	fp := rmat.Graph500Params(scale, 16, subSeed(seed, 2))
	fp.NumEdges = 1 << 40 // the stream is cut by time, not by length
	fresh, err := rmat.NewGenerator(fp)
	if err != nil {
		return nil, nil, err
	}
	g := &churnGen{
		rng:    rand.New(rand.NewPCG(seed, subSeed(seed, 3))),
		fresh:  fresh,
		oracle: make(map[uint64]oracleEntry, len(edges)),
		seen:   make(map[uint64]struct{}, 4096),
	}
	prefill := make([]gt.Update, len(edges))
	distinct := 0
	for i, e := range edges {
		prefill[i] = gt.InsertUpdate(e.Src, e.Dst, e.Weight)
		k := edgeKey(e.Src, e.Dst)
		if ent, ok := g.oracle[k]; ok {
			ent.w = e.Weight
			g.oracle[k] = ent
			continue
		}
		ent := oracleEntry{w: e.Weight, idx: -1}
		if distinct%pinEvery == 0 {
			g.pinned = append(g.pinned, k)
			if len(g.hot) < hotSetSize {
				g.hot = append(g.hot, k)
			}
		} else {
			ent.idx = int32(len(g.live))
			g.live = append(g.live, k)
		}
		g.oracle[k] = ent
		distinct++
	}
	return g, prefill, nil
}

func (g *churnGen) weight() float32 { return float32(1 + g.rng.IntN(255)) }

// nextBatch fills buf with n ops of the churn mix and applies them to the
// oracle in the same order the store will.
func (g *churnGen) nextBatch(buf []gt.Update, n int) []gt.Update {
	buf = buf[:0]
	clear(g.seen)
	for len(buf) < n {
		var op gt.Update
		r := g.rng.IntN(100)
		switch {
		case r < churnInsertPct:
			e, _ := g.fresh.Next()
			k, w := edgeKey(e.Src, e.Dst), g.weight()
			if ent, ok := g.oracle[k]; ok {
				ent.w = w
				g.oracle[k] = ent
			} else {
				g.oracle[k] = oracleEntry{w: w, idx: int32(len(g.live))}
				g.live = append(g.live, k)
			}
			op = gt.InsertUpdate(e.Src, e.Dst, w)
		case r < churnInsertPct+churnDeletePct && len(g.live) > 0:
			i := g.rng.IntN(len(g.live))
			k := g.live[i]
			last := g.live[len(g.live)-1]
			g.live[i] = last
			ent := g.oracle[last]
			ent.idx = int32(i)
			g.oracle[last] = ent
			g.live = g.live[:len(g.live)-1]
			delete(g.oracle, k)
			if len(g.recent) < recentDeletes {
				g.recent = append(g.recent, k)
			} else {
				g.recent[g.deletes%recentDeletes] = k
			}
			g.deletes++
			src, dst := keyEdge(k)
			op = gt.DeleteUpdate(src, dst)
		default:
			k, w := g.hot[g.rng.IntN(len(g.hot))], g.weight()
			ent := g.oracle[k]
			ent.w = w
			g.oracle[k] = ent
			src, dst := keyEdge(k)
			op = gt.InsertUpdate(src, dst, w)
		}
		k := edgeKey(op.Src, op.Dst)
		if _, dup := g.seen[k]; dup {
			g.repeats++
		}
		g.seen[k] = struct{}{}
		buf = append(buf, op)
	}
	g.ops += uint64(n)
	return buf
}

// repeatFrac is the share of generated ops whose edge already appeared
// earlier in the same batch.
func (g *churnGen) repeatFrac() float64 { return frac(g.repeats, g.ops) }

// deleteFrac is the share of generated ops that are deletes.
func (g *churnGen) deleteFrac() float64 { return frac(g.deletes, g.ops) }

func frac(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// verify compares a store with the oracle: edge count, a seeded sample of
// live and pinned edges (weights included) and the recently deleted
// edges.
func (g *churnGen) verify(c *checker, store *gt.Parallel, samples int, seed uint64) {
	got, want := store.NumEdges(), uint64(len(g.oracle))
	c.expect(got == want, "edge count %d, oracle has %d", got, want)
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	probe := func(k uint64) {
		src, dst := keyEdge(k)
		w, ok := store.FindEdge(src, dst)
		ent, present := g.oracle[k]
		c.expect(ok == present && (!ok || w == ent.w),
			"FindEdge(%d,%d) = (%g,%v), oracle says (%g,%v)", src, dst, w, ok, ent.w, present)
	}
	for i := 0; i < samples; i++ {
		if len(g.live) > 0 {
			probe(g.live[rng.IntN(len(g.live))])
		}
		probe(g.pinned[rng.IntN(len(g.pinned))])
	}
	for _, k := range g.recent {
		probe(k)
	}
}

// analyticsInput is the stream-analytics input: insert-only RMAT edges
// cut into ApplyBatch-sized batches, and the BFS root, the vertex of
// highest out-degree, so every seed's BFS reaches the giant component.
type analyticsInput struct {
	batches [][]gt.Edge
	root    uint64
	edges   int
}

func newAnalyticsInput(scale, batchSize int, seed uint64) (*analyticsInput, error) {
	edges, err := rmatEdges(scale, 16, subSeed(seed, 4))
	if err != nil {
		return nil, err
	}
	in := &analyticsInput{edges: len(edges)}
	degree := make(map[uint64]int)
	for _, e := range edges {
		degree[e.Src]++
		if d, best := degree[e.Src], degree[in.root]; d > best || (d == best && e.Src < in.root) {
			in.root = e.Src
		}
	}
	for i := 0; i < len(edges); i += batchSize {
		part := edges[i:min(i+batchSize, len(edges))]
		b := make([]gt.Edge, len(part))
		for j, e := range part {
			b[j] = gt.Edge{Src: e.Src, Dst: e.Dst, Weight: e.Weight}
		}
		in.batches = append(in.batches, b)
	}
	return in, nil
}

// recoverInput is the op stream a recover directory is built from, and
// the edge set it must recover to.
type recoverInput struct {
	ops    []gt.Update
	oracle map[uint64]float32
	keys   []uint64 // distinct keys in first-insert order, for sampling
}

func newRecoverInput(scale int, seed uint64) (*recoverInput, error) {
	edges, err := rmatEdges(scale, 16, subSeed(seed, 5))
	if err != nil {
		return nil, err
	}
	in := &recoverInput{ops: make([]gt.Update, len(edges)), oracle: make(map[uint64]float32, len(edges))}
	for i, e := range edges {
		in.ops[i] = gt.InsertUpdate(e.Src, e.Dst, e.Weight)
		k := edgeKey(e.Src, e.Dst)
		if _, ok := in.oracle[k]; !ok {
			in.keys = append(in.keys, k)
		}
		in.oracle[k] = e.Weight
	}
	return in, nil
}

// storeView is the read surface the recover checks compare.
type storeView interface {
	NumEdges() uint64
	FindEdge(src, dst uint64) (float32, bool)
	OutDegree(src uint64) uint32
}

// compareStores checks got against want on edge count and on a seeded
// sample of FindEdge and OutDegree over keys.
func compareStores(c *checker, what string, got, want storeView, keys []uint64, samples int, seed uint64) {
	gn, wn := got.NumEdges(), want.NumEdges()
	c.expect(gn == wn, "%s: edge count %d, want %d", what, gn, wn)
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	for i := 0; i < samples; i++ {
		src, dst := keyEdge(keys[rng.IntN(len(keys))])
		gw, gok := got.FindEdge(src, dst)
		ww, wok := want.FindEdge(src, dst)
		c.expect(gok == wok && gw == ww, "%s: FindEdge(%d,%d) = (%g,%v), want (%g,%v)", what, src, dst, gw, gok, ww, wok)
		gd, wd := got.OutDegree(src), want.OutDegree(src)
		c.expect(gd == wd, "%s: OutDegree(%d) = %d, want %d", what, src, gd, wd)
	}
}

// oracleView serves the recover oracle through the storeView surface.
type oracleView struct {
	edges  map[uint64]float32
	degree map[uint64]uint32
}

func newOracleView(edges map[uint64]float32) *oracleView {
	v := &oracleView{edges: edges, degree: make(map[uint64]uint32)}
	for k := range edges {
		src, _ := keyEdge(k)
		v.degree[src]++
	}
	return v
}

func (v *oracleView) NumEdges() uint64 { return uint64(len(v.edges)) }

func (v *oracleView) FindEdge(src, dst uint64) (float32, bool) {
	w, ok := v.edges[edgeKey(src, dst)]
	return w, ok
}

func (v *oracleView) OutDegree(src uint64) uint32 { return v.degree[src] }

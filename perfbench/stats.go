package main

import (
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	gt "graphtinker"
)

// quantile returns the q-quantile (0 <= q <= 1) of samples, interpolating
// linearly between the two nearest ranks. It sorts samples in place.
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	h := q * float64(len(samples)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(samples) {
		return samples[len(samples)-1]
	}
	return samples[lo] + time.Duration((h-float64(lo))*float64(samples[lo+1]-samples[lo]))
}

// rounded is a sample stream cut into the run's rounds.
type rounded struct {
	all    []time.Duration
	starts []int
}

func (r *rounded) startRound() { r.starts = append(r.starts, len(r.all)) }

// perRound applies stat to each round's samples and returns the median
// over rounds, so a slow spell of the machine that spans a minority of
// rounds does not move the figure.
func (r *rounded) perRound(stat func([]time.Duration) float64) float64 {
	var vals []float64
	for i, start := range r.starts {
		end := len(r.all)
		if i+1 < len(r.starts) {
			end = r.starts[i+1]
		}
		if end > start {
			vals = append(vals, stat(r.all[start:end]))
		}
	}
	return median(vals)
}

// median returns the median of xs (the mean of the middle pair for an even
// count). It sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// settle collects garbage and flushes dirty pages left by set-up and by
// the other phases, so a measured slice or set-up does not pay for another
// phase's collection or write-back (a follower catch-up leaves tens of MB dirty,
// which slowed the next slice's WAL fsyncs).
func settle() {
	runtime.GC()
	syscall.Sync()
}

// liveHeap returns the bytes of live heap objects after two full
// collections, so garbage from earlier work is not counted.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// bytesPerEdge is the heap a store holds per live edge: the live heap with
// the store minus the live heap after release closes it and drops it.
func bytesPerEdge(edges uint64, release func()) float64 {
	with := liveHeap()
	release()
	without := liveHeap()
	if edges == 0 || with < without {
		return 0
	}
	return float64(with-without) / float64(edges)
}

// histDiff returns the samples observed between two snapshots of one
// histogram. Max is the later snapshot's, which bounds the overflow
// bucket's quantiles.
func histDiff(after, before gt.HistogramSnapshot) gt.HistogramSnapshot {
	d := gt.HistogramSnapshot{Count: after.Count - before.Count, Sum: after.Sum - before.Sum, Max: after.Max}
	prev := make(map[uint64]uint64, len(before.Buckets))
	for _, b := range before.Buckets {
		prev[b.UpperBound] = b.Count
	}
	for _, b := range after.Buckets {
		if c := b.Count - prev[b.UpperBound]; c > 0 {
			b.Count = c
			d.Buckets = append(d.Buckets, b)
		}
	}
	return d
}

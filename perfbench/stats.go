package main

import (
	"math"
	"sort"
)

// summary is one timing's distribution: the median and the tail, where the
// tail is the highest percentile that still has at least minBeyond samples
// above it (so it is backed by data, not by one outlier).
type summary struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64 // the percentile Tail reports, in (0, 100]
}

// minBeyond is how many samples must lie above the reported tail value.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middles for an even
// count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summarize computes a timing's median and tail. The tail is the sorted
// sample with exactly minBeyond samples above it, reported at its
// percentile; with too few samples for that to lie above the median, the
// tail collapses to the median and is reported as the 50th percentile.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{P50: math.NaN(), Tail: math.NaN()}
	}
	s := sortedCopy(xs)
	n := len(s)
	p50 := median(s)
	sm := summary{N: n, P50: p50, Tail: p50, TailPct: 50}
	if idx := n - 1 - minBeyond; idx >= n/2 {
		sm.Tail = s[idx]
		sm.TailPct = 100 * float64(idx+1) / float64(n)
	}
	return sm
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// interval is a half-open time range [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

// selfTime returns the part of parent not covered by any child. Children
// may overlap each other (ranks snapshot concurrently) and may stick out of
// the parent; only their union inside the parent is subtracted.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.lo, parent.lo), min(c.hi, parent.hi)
		if hi > lo {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	covered := int64(0)
	curLo, curHi := int64(0), int64(0)
	for i, c := range clipped {
		if i == 0 || c.lo > curHi {
			covered += curHi - curLo
			curLo, curHi = c.lo, c.hi
			continue
		}
		curHi = max(curHi, c.hi)
	}
	covered += curHi - curLo
	return parent.hi - parent.lo - covered
}

// tally counts attempted and failed operations. Every run, capture,
// restart, digest comparison and store verification is one attempt; any
// error or mismatch is one failure, with its reason kept for the report.
type tally struct {
	attempted int
	failed    int
	reasons   []string
}

// check records one attempted operation; err != nil marks it failed.
func (t *tally) check(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		t.reasons = append(t.reasons, err.Error())
		return false
	}
	return true
}

// failRatio is failed ÷ attempted (0 with nothing attempted).
func (t *tally) failRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

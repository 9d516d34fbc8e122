package main

import (
	"sort"
	"time"
)

// Operation names: the latency series the recorder keeps, and the names
// core spans carry.
const (
	opQuery     = "query"
	opTransfer  = "transfer"
	opDerive25  = "derive25"
	opDerive100 = "derive100"
	opLoad      = "load"
	opRetire    = "retire"
	opStore     = "store" // set-up only
)

var timedOps = []string{opDerive25, opDerive100, opTransfer, opQuery, opLoad, opRetire}

// recorder accumulates one worker's measured-phase results. Workers own
// their recorder; merge combines them after the workers have stopped.
type recorder struct {
	lat       map[string][]float64 // op -> latency of each successful call, ms
	attempted int                  // Repository calls
	failed    int
	requests  int           // completed requests (cycles or deck entries)
	busy      time.Duration // time spent inside Repository calls

	inherited, prefixParam int // derive read-back: inherited and prefix parameter vertices

	segHits, segMisses map[string]uint64 // op -> client segment-cache hits and misses
}

func newRecorder() *recorder {
	return &recorder{lat: make(map[string][]float64),
		segHits: make(map[string]uint64), segMisses: make(map[string]uint64)}
}

func (r *recorder) merge(o *recorder) {
	for k, v := range o.lat {
		r.lat[k] = append(r.lat[k], v...)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.requests += o.requests
	r.busy += o.busy
	r.inherited += o.inherited
	r.prefixParam += o.prefixParam
	for k, v := range o.segHits {
		r.segHits[k] += v
	}
	for k, v := range o.segMisses {
		r.segMisses[k] += v
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// beyond counts samples strictly above x.
func beyond(xs []float64, x float64) int {
	n := 0
	for _, v := range xs {
		if v > x {
			n++
		}
	}
	return n
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func newRecorders(n int) []*recorder {
	rs := make([]*recorder, n)
	for i := range rs {
		rs[i] = newRecorder()
	}
	return rs
}

// pooled merges every window's recorder into one.
func pooled(rs []*recorder) *recorder {
	all := newRecorder()
	for _, r := range rs {
		all.merge(r)
	}
	return all
}

// pacer splits a measured phase into windows. Workers call next at every
// request boundary; it names the window the next request belongs to, or
// reports that the phase is over. Implementations are safe for concurrent
// use.
type pacer interface {
	next() (window int, done bool)
	windows() int
}

// timePacer splits d into n equal windows from its start.
type timePacer struct {
	start time.Time
	width time.Duration
	n     int
}

func newTimePacer(d time.Duration, n int) *timePacer {
	return &timePacer{start: time.Now(), width: d / time.Duration(n), n: n}
}

func (p *timePacer) next() (int, bool) {
	k := int(time.Since(p.start) / p.width)
	return k, k >= p.n
}

func (p *timePacer) windows() int { return p.n }

// windowMedian returns the median over windows of f applied to each
// window's recorder.
func windowMedian(rs []*recorder, f func(*recorder) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

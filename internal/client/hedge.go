package client

import (
	"sync"
	"time"

	"repro/internal/frontdoor"
	"repro/internal/rpc"
)

// Hedged reads (Dean & Barroso, "The Tail at Scale", CACM 2013): instead
// of waiting for a gray-slow primary to finish or time out before failing
// over, a read that has not answered within a hedge delay launches a
// second copy against the next-best replica and takes whichever answers
// first. The hedge delay is derived from the primary's own observed p95
// (resilient.LatencyReporter) and shortened when its health score is low,
// so a struggling primary is hedged sooner; a token budget caps the extra
// request volume so hedging can never melt a fleet that is slow because
// it is overloaded. Replica failover semantics are unchanged — a
// transiently failed leg launches the next replica immediately and is not
// charged against the hedge budget. The racing itself lives in readPass
// (replication.go), the one replica pass hedged and unhedged reads share.

// scoreReporter mirrors resilient.ScoreReporter without importing the
// package: any conn exposing Score() participates in score-ranked replica
// ordering and score-scaled hedge delays.
type scoreReporter interface {
	Score() float64
}

// latencyReporter mirrors resilient.LatencyReporter.
type latencyReporter interface {
	LatencyPercentile(p float64) time.Duration
}

const (
	// defaultHedgeBudget is the hedges-per-second budget when
	// WithHedgedReads is given a non-positive one.
	defaultHedgeBudget = 50
	// hedgeWindow is the budget bucket's refill window: short, so a burst
	// of slowness gets prompt hedges but sustained slowness converges to
	// the steady-state rate.
	hedgeWindow = time.Second
	// hedgeDelayFloor bounds the adaptive delay from below: hedging
	// microseconds after launch would race every healthy read.
	hedgeDelayFloor = 500 * time.Microsecond
	// fallbackHedgeDelay is used before the primary has latency samples.
	fallbackHedgeDelay = 2 * time.Millisecond
	// hedgeQuantile is the observed quantile the adaptive delay starts
	// from: hedge only the slowest ~5% of reads.
	hedgeQuantile = 0.95
)

// hedger holds the hedging budget for one Client.
type hedger struct {
	mu     sync.Mutex
	bucket *frontdoor.Bucket
}

// WithHedgedReads enables hedged reads. The pause before a read is
// duplicated to the next-best replica is derived per call from the
// primary's observed p95 latency, scaled down by its health score (see
// delayFor). budgetPerSec caps hedge launches per second fleet-wide on
// this client (<= 0: a conservative default); reads beyond the budget
// simply stay un-hedged.
func WithHedgedReads(budgetPerSec float64) Option {
	return func(c *Client) {
		if budgetPerSec <= 0 {
			budgetPerSec = defaultHedgeBudget
		}
		c.hedge = &hedger{bucket: frontdoor.NewBucket(budgetPerSec, hedgeWindow)}
	}
}

// admit charges one hedge against the budget, reporting whether the
// hedge may launch.
func (h *hedger) admit() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	_, ok := h.bucket.Take(time.Now(), 1)
	return ok
}

// delayFor picks the hedge delay before duplicating a read in flight on
// conn to next (the replica the hedge would go to; nil when unknown).
func (h *hedger) delayFor(conn, next rpc.Conn) time.Duration {
	var d time.Duration
	if lr, ok := conn.(latencyReporter); ok {
		d = lr.LatencyPercentile(hedgeQuantile)
	}
	// A gray-slow primary's own p95 is exactly what hedging routes
	// around, so it must not set the wait: clamp to twice what the hedge
	// target typically needs. Against a healthy primary the clamp is
	// inert (2x its sibling's p95 exceeds its own p95), so only the
	// slowest ~5% of healthy reads still hedge.
	if next != nil {
		if lr, ok := next.(latencyReporter); ok {
			if np := lr.LatencyPercentile(hedgeQuantile); np > 0 && (d <= 0 || 2*np < d) {
				d = 2 * np
			}
		}
	}
	if d <= 0 {
		d = fallbackHedgeDelay
	}
	if sr, ok := conn.(scoreReporter); ok {
		// A primary already known to be struggling is hedged sooner: the
		// delay scales from 100% of base at score 1 down to 25% at 0.
		if s := sr.Score(); s < 1 {
			d = time.Duration(float64(d) * (0.25 + 0.75*s))
		}
	}
	if d < hedgeDelayFloor {
		d = hedgeDelayFloor
	}
	return d
}

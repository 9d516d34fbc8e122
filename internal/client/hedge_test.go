package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/ownermap"
	"repro/internal/rpc"
)

// hedgeTestConn is a scripted replica for hedging tests: per-call delay,
// optional fixed error, and optional score/latency reporting.
type hedgeTestConn struct {
	delay time.Duration
	err   error
	score float64 // reported when >= 0
	p95   time.Duration

	calls atomic.Int64
}

func (c *hedgeTestConn) Call(ctx context.Context, name string, req rpc.Message) (rpc.Message, error) {
	c.calls.Add(1)
	if c.delay > 0 {
		t := time.NewTimer(c.delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return rpc.Message{}, ctx.Err()
		}
	}
	if c.err != nil {
		return rpc.Message{}, c.err
	}
	return rpc.Message{Meta: []byte("ok")}, nil
}
func (c *hedgeTestConn) Addr() string { return "hedge-test" }
func (c *hedgeTestConn) Close() error { return nil }
func (c *hedgeTestConn) Score() float64 {
	if c.score >= 0 {
		return c.score
	}
	return 1
}
func (c *hedgeTestConn) LatencyPercentile(float64) time.Duration { return c.p95 }

func TestHedgeWinsOverSlowPrimary(t *testing.T) {
	reg := metrics.NewRegistry()
	// The primary's observed p95 sets the hedge delay (5ms).
	primary := &hedgeTestConn{delay: 300 * time.Millisecond, score: -1, p95: 5 * time.Millisecond}
	secondary := &hedgeTestConn{delay: time.Millisecond, score: -1}
	cli := New([]rpc.Conn{primary, secondary}, WithReplicas(2), WithRegistry(reg),
		WithHedgedReads(100))

	start := time.Now()
	resp, err := cli.readCall(context.Background(), "op", ownermap.ModelID(0), rpc.Message{})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Meta) != "ok" {
		t.Fatalf("resp = %q", resp.Meta)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("hedged read took %v; the hedge should have won at ~6ms", elapsed)
	}
	if n := reg.Counter("client.hedged_read").Load(); n != 1 {
		t.Fatalf("client.hedged_read = %d, want 1", n)
	}
	if n := reg.Counter("client.hedge_won").Load(); n != 1 {
		t.Fatalf("client.hedge_won = %d, want 1", n)
	}
	if n := reg.Counter("client.hedge_cancelled").Load(); n != 1 {
		t.Fatalf("client.hedge_cancelled = %d, want 1 (the abandoned primary)", n)
	}
}

func TestHedgeBudgetExhaustedReadStillSucceeds(t *testing.T) {
	reg := metrics.NewRegistry()
	// A 1/s budget affords exactly one hedge up front (a fresh bucket
	// floors its fill at one op); every slow read after that must run
	// un-hedged until the bucket refills.
	primary := &hedgeTestConn{delay: 40 * time.Millisecond, score: -1, p95: time.Millisecond}
	secondary := &hedgeTestConn{delay: time.Millisecond, score: -1}
	cli := New([]rpc.Conn{primary, secondary}, WithReplicas(2), WithRegistry(reg),
		WithHedgedReads(1))

	for i := 0; i < 3; i++ {
		resp, err := cli.readCall(context.Background(), "op", ownermap.ModelID(0), rpc.Message{})
		if err != nil {
			t.Fatal(err)
		}
		if string(resp.Meta) != "ok" {
			t.Fatalf("read %d: resp = %q", i, resp.Meta)
		}
	}
	if n := reg.Counter("client.hedged_read").Load(); n != 1 {
		t.Fatalf("client.hedged_read = %d, want 1 (initial token only)", n)
	}
	if got := secondary.calls.Load(); got != 1 {
		t.Fatalf("secondary saw %d calls, want 1", got)
	}
}

func TestHedgeTransientFailureFailsOverImmediately(t *testing.T) {
	// Hedger on and off: the one replica pass fails over the same way.
	for _, m := range []struct {
		name string
		opts []Option
	}{
		{"hedged", []Option{WithHedgedReads(100)}},
		{"unhedged", nil},
	} {
		t.Run(m.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			// The primary fails fast and transiently; its hour-long p95
			// means a hedge timer, if armed, can never fire.
			primary := &hedgeTestConn{err: rpc.ErrInjected, score: -1, p95: time.Hour}
			secondary := &hedgeTestConn{delay: time.Millisecond, score: -1, p95: time.Hour}
			opts := append([]Option{WithReplicas(2), WithRegistry(reg)}, m.opts...)
			cli := New([]rpc.Conn{primary, secondary}, opts...)

			start := time.Now()
			if _, err := cli.readCall(context.Background(), "op", ownermap.ModelID(0), rpc.Message{}); err != nil {
				t.Fatal(err)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("failover took %v; must not wait for the hedge delay", elapsed)
			}
			if n := reg.Counter("client.hedged_read").Load(); n != 0 {
				t.Fatalf("client.hedged_read = %d, want 0 (failover is free)", n)
			}
			if n := reg.Counter("client.read_failover").Load(); n != 1 {
				t.Fatalf("client.read_failover = %d, want 1", n)
			}
			if got := secondary.calls.Load(); got != 1 {
				t.Fatalf("secondary saw %d calls, want 1", got)
			}
		})
	}
}

func TestHedgeAuthoritativeErrorSettles(t *testing.T) {
	// Any permanently-classified error is authoritative to the read path;
	// ErrFrameTooLarge is the easiest to synthesize without a server.
	authoritative := fmt.Errorf("%w: model not found", rpc.ErrFrameTooLarge)
	for _, tc := range []struct {
		name               string
		opts               []Option
		primary, secondary *hedgeTestConn
		wantSecondaryCalls int64
	}{
		// The primary answers authoritatively before any hedge: the read
		// settles on it and never touches the secondary.
		{"hedged/primary", []Option{WithHedgedReads(100)},
			&hedgeTestConn{err: authoritative, score: -1, p95: time.Hour},
			&hedgeTestConn{score: -1}, 0},
		{"unhedged/primary", nil,
			&hedgeTestConn{err: authoritative, score: -1},
			&hedgeTestConn{score: -1}, 0},
		// A hedge against a slow primary (p95 2ms sets the delay) gets the
		// authoritative answer: the read settles without waiting out the
		// primary.
		{"hedged/hedge-leg", []Option{WithHedgedReads(100)},
			&hedgeTestConn{delay: 500 * time.Millisecond, score: -1, p95: 2 * time.Millisecond},
			&hedgeTestConn{delay: time.Millisecond, err: authoritative, score: -1}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			opts := append([]Option{WithReplicas(2), WithRegistry(reg)}, tc.opts...)
			cli := New([]rpc.Conn{tc.primary, tc.secondary}, opts...)

			start := time.Now()
			_, err := cli.readCall(context.Background(), "op", ownermap.ModelID(0), rpc.Message{})
			if err == nil {
				t.Fatal("want authoritative error, got success")
			}
			if !errors.Is(err, authoritative) {
				t.Fatalf("err = %v, want wrapped authoritative cause", err)
			}
			if elapsed := time.Since(start); elapsed > 400*time.Millisecond {
				t.Fatalf("authoritative settle took %v; must not wait out the slow primary", elapsed)
			}
			if got := tc.secondary.calls.Load(); got != tc.wantSecondaryCalls {
				t.Fatalf("secondary saw %d calls, want %d", got, tc.wantSecondaryCalls)
			}
			if n := reg.Counter("client.read_failover").Load(); n != 0 {
				t.Fatalf("client.read_failover = %d, want 0 (settled, not failed over)", n)
			}
		})
	}
}

// ctxRecordingConn answers every call and records the context it ran on.
type ctxRecordingConn struct {
	hedgeTestConn
	got context.Context
}

func (c *ctxRecordingConn) Call(ctx context.Context, name string, req rpc.Message) (rpc.Message, error) {
	c.got = ctx
	return c.hedgeTestConn.Call(ctx, name, req)
}

// When no hedge can launch, the replica pass runs its leg inline: the
// conn sees the caller's own context, not a per-read racing context
// (which would mean a goroutine, channel and timer per read).
func TestReadPassInlineWithoutHedge(t *testing.T) {
	type key struct{}
	for _, tc := range []struct {
		name  string
		conns int
		opts  []Option
	}{
		{"no-hedger", 2, []Option{WithReplicas(2)}},
		{"one-replica", 1, []Option{WithHedgedReads(100)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conns := make([]rpc.Conn, tc.conns)
			recs := make([]*ctxRecordingConn, tc.conns)
			for i := range conns {
				recs[i] = &ctxRecordingConn{hedgeTestConn: hedgeTestConn{score: -1}}
				conns[i] = recs[i]
			}
			cli := New(conns, append(tc.opts, WithRegistry(metrics.NewRegistry()))...)
			ctx := context.WithValue(context.Background(), key{}, 1)
			if _, err := cli.readCall(ctx, "op", ownermap.ModelID(0), rpc.Message{}); err != nil {
				t.Fatal(err)
			}
			if recs[0].got != ctx {
				t.Fatal("leg ran on a derived context; want the caller's, inline")
			}
		})
	}
}

// flappingScoreConn reports a randomly flapping health/score so readOrder
// ranks over values that change under it.
type flappingScoreConn struct {
	healthy atomic.Bool
	score   atomic.Int64 // score x1000
}

func (c *flappingScoreConn) Call(context.Context, string, rpc.Message) (rpc.Message, error) {
	return rpc.Message{Meta: []byte("ok")}, nil
}
func (c *flappingScoreConn) Addr() string   { return "flap" }
func (c *flappingScoreConn) Close() error   { return nil }
func (c *flappingScoreConn) Healthy() bool  { return c.healthy.Load() }
func (c *flappingScoreConn) Score() float64 { return float64(c.score.Load()) / 1000 }

// Satellite (-race): breakers flapping and scores changing while
// readOrder ranks must neither panic nor drop replicas from the order.
func TestReadOrderScoreFlappingRace(t *testing.T) {
	const n = 5
	conns := make([]rpc.Conn, n)
	flaps := make([]*flappingScoreConn, n)
	for i := range conns {
		f := &flappingScoreConn{}
		f.healthy.Store(true)
		f.score.Store(1000)
		conns[i] = f
		flaps[i] = f
	}
	cli := New(conns, WithReplicas(3), WithRegistry(metrics.NewRegistry()))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				f := flaps[rng.Intn(n)]
				f.healthy.Store(rng.Intn(2) == 0)
				f.score.Store(rng.Int63n(1001))
			}
		}(int64(g + 1))
	}
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				id := ownermap.ModelID(rng.Intn(64))
				order := cli.readOrder(id)
				want := len(cli.ReplicaSet(id))
				if len(order) != want {
					panic(fmt.Sprintf("readOrder(%d) returned %d replicas, want %d", id, len(order), want))
				}
				seen := make(map[int]bool, len(order))
				for _, pi := range order {
					if seen[pi] {
						panic(fmt.Sprintf("readOrder(%d) duplicated provider %d: %v", id, pi, order))
					}
					seen[pi] = true
				}
			}
		}(int64(g + 100))
	}
	readers.Wait()
	close(stop)
	wg.Wait()
}

// Score-ranked ordering: with equal breaker health, the higher-scoring
// replica leads even when placement prefers the other.
func TestReadOrderRanksByScore(t *testing.T) {
	gray := &hedgeTestConn{score: 0.05}
	healthy := &hedgeTestConn{score: 0.9}
	cli := New([]rpc.Conn{gray, healthy}, WithReplicas(2), WithRegistry(metrics.NewRegistry()))
	// Model 0: home provider 0 (gray). Score ranking must flip the order.
	order := cli.readOrder(ownermap.ModelID(0))
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Fatalf("readOrder = %v, want [1 0] (score 0.9 before 0.05)", order)
	}
	// Equal scores keep placement order (home first).
	gray.score = 0.9
	order = cli.readOrder(ownermap.ModelID(0))
	if len(order) != 2 || order[0] != 0 {
		t.Fatalf("readOrder with equal scores = %v, want home provider 0 first", order)
	}
}

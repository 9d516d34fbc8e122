package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kvstore"
	"repro/internal/rpc"
)

// The tracer records spans at the public seams of each layer from
// benchmark-owned decorators, so the program itself carries no tracing
// code. Three span kinds nest: a core span around every Repository call,
// an optional resilient span around each call into resilient.Conn (hub
// only), and an rpc span around each call into the transport below it.
// The innermost enclosing span rides in the call's context; a decorator
// records nothing for a context that carries none, so set-up, warm-up and
// correctness checks stay out of the books.

type spanKind uint8

const (
	kindCore spanKind = iota
	kindResilient
	kindRPC
)

func (k spanKind) String() string {
	switch k {
	case kindCore:
		return "core"
	case kindResilient:
		return "resilient"
	}
	return "rpc"
}

// span is one recorded interval. Times are nanoseconds since the tracer's
// epoch. root is the ID of the enclosing core span (its own ID for a core
// span), so transport bytes can be charged to the Repository call that
// caused them.
type span struct {
	id, parent, root uint64
	kind             spanKind
	name             string
	start, end       int64
	bytes            int64 // rpc: request plus response bulk bytes
	modBytes         int64 // core derive: parameter bytes of trained or fresh vertices
	failed           bool
}

type spanKey struct{}

// spanFrom returns the innermost span carried by ctx, or nil.
func spanFrom(ctx context.Context) *span {
	sp, _ := ctx.Value(spanKey{}).(*span)
	return sp
}

// kvOp indexes the kvstore counters.
type kvOp int

const (
	kvGet kvOp = iota
	kvPut
	kvDelete
	numKVOps
)

var kvOpNames = [numKVOps]string{"get", "put", "delete"}

type kvCounters struct {
	calls, busyNs, bytes atomic.Int64
}

// tracer keeps every finished span in memory until the run ends.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []*span

	// kvOn gates the kvstore decorator, which has no context to consult.
	kvOn atomic.Bool
	kv   [numKVOps]kvCounters
	// casPuts counts puts of dedup chunks ("cas/" keys): new chunks, the
	// misses of dedup.hit_ratio.
	casPuts atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start opens a span under parent (nil for a core span).
func (t *tracer) start(parent *span, kind spanKind, name string) *span {
	sp := &span{id: t.next.Add(1), kind: kind, name: name, start: t.now()}
	sp.root = sp.id
	if parent != nil {
		sp.parent, sp.root = parent.id, parent.root
	}
	return sp
}

// finish closes sp and keeps it.
func (t *tracer) finish(sp *span, err error) {
	sp.end = t.now()
	sp.failed = err != nil
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// startCore opens a core span and returns a context carrying it.
func (t *tracer) startCore(ctx context.Context, op string) (context.Context, *span) {
	sp := t.start(nil, kindCore, op)
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// reset drops recorded spans and kvstore counters.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
	for i := range t.kv {
		t.kv[i].calls.Store(0)
		t.kv[i].busyNs.Store(0)
		t.kv[i].bytes.Store(0)
	}
	t.casPuts.Store(0)
}

// dump writes every span as one text line to path:
// id parent root kind name start_ns dur_ns bytes failed.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# id parent root kind name start_ns dur_ns bytes failed")
	t.mu.Lock()
	for _, sp := range t.spans {
		fmt.Fprintf(w, "%d %d %d %s %s %d %d %d %t\n", sp.id, sp.parent, sp.root, sp.kind, sp.name,
			sp.start, sp.end-sp.start, sp.bytes, sp.failed)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- rpc.Conn decorators --------------------------------------------------------

// tracedConn records a span of kind around every call that arrives with a
// span in its context. A resilient-kind decorator also installs its span
// as the parent of the calls below it.
type tracedConn struct {
	inner rpc.Conn
	tr    *tracer
	kind  spanKind
}

// healthReporter, scoreReporter and latencyReporter are the optional
// interfaces the client's replica selection type-asserts on a connection.
type healthReporter interface{ Healthy() bool }
type scoreReporter interface{ Score() float64 }
type latencyReporter interface {
	LatencyPercentile(p float64) time.Duration
}

// healthConn is a tracedConn over a connection that reports health; it
// forwards the three reporting methods so replica ordering sees through
// the decorator.
type healthConn struct{ *tracedConn }

func (c healthConn) Healthy() bool  { return c.inner.(healthReporter).Healthy() }
func (c healthConn) Score() float64 { return c.inner.(scoreReporter).Score() }
func (c healthConn) LatencyPercentile(p float64) time.Duration {
	return c.inner.(latencyReporter).LatencyPercentile(p)
}

// wrapConn decorates inner with a span of kind. The result exposes the
// health-reporting methods exactly when inner exposes all three.
func wrapConn(inner rpc.Conn, tr *tracer, kind spanKind) rpc.Conn {
	tc := &tracedConn{inner: inner, tr: tr, kind: kind}
	_, h := inner.(healthReporter)
	_, s := inner.(scoreReporter)
	_, l := inner.(latencyReporter)
	if h && s && l {
		return healthConn{tc}
	}
	return tc
}

func wrapConns(conns []rpc.Conn, tr *tracer, kind spanKind) []rpc.Conn {
	out := make([]rpc.Conn, len(conns))
	for i, c := range conns {
		out[i] = wrapConn(c, tr, kind)
	}
	return out
}

// methodName strips the "evostore." prefix from an RPC name.
func methodName(name string) string { return strings.TrimPrefix(name, "evostore.") }

func (c *tracedConn) Call(ctx context.Context, name string, req rpc.Message) (rpc.Message, error) {
	parent := spanFrom(ctx)
	if parent == nil {
		return c.inner.Call(ctx, name, req)
	}
	sp := c.tr.start(parent, c.kind, methodName(name))
	if c.kind == kindResilient {
		ctx = context.WithValue(ctx, spanKey{}, sp)
	}
	resp, err := c.inner.Call(ctx, name, req)
	sp.bytes = int64(req.BulkLen() + resp.BulkLen())
	c.tr.finish(sp, err)
	return resp, err
}

func (c *tracedConn) Addr() string { return c.inner.Addr() }
func (c *tracedConn) Close() error { return c.inner.Close() }

// --- kvstore.KV decorator -------------------------------------------------------

// tracedKV counts calls, busy time and bytes of Get, Put and Delete while
// the tracer's kvstore gate is on. Use wrapKV, which keeps exactly the
// optional interfaces of the target.
type tracedKV struct {
	kv kvstore.KV
	tr *tracer
}

func (k *tracedKV) record(op kvOp, t0 time.Time, n int) {
	c := &k.tr.kv[op]
	c.calls.Add(1)
	c.busyNs.Add(int64(time.Since(t0)))
	c.bytes.Add(int64(n))
}

func (k *tracedKV) Put(key string, value []byte) error {
	if !k.tr.kvOn.Load() {
		return k.kv.Put(key, value)
	}
	t0 := time.Now()
	err := k.kv.Put(key, value)
	k.record(kvPut, t0, len(value))
	if strings.HasPrefix(key, "cas/") {
		k.tr.casPuts.Add(1)
	}
	return err
}

func (k *tracedKV) Get(key string) ([]byte, bool, error) {
	if !k.tr.kvOn.Load() {
		return k.kv.Get(key)
	}
	t0 := time.Now()
	v, ok, err := k.kv.Get(key)
	k.record(kvGet, t0, len(v))
	return v, ok, err
}

func (k *tracedKV) Delete(key string) error {
	if !k.tr.kvOn.Load() {
		return k.kv.Delete(key)
	}
	t0 := time.Now()
	err := k.kv.Delete(key)
	k.record(kvDelete, t0, 0)
	return err
}

func (k *tracedKV) Scan(prefix string, fn func(key string, value []byte) bool) error {
	return k.kv.Scan(prefix, fn)
}
func (k *tracedKV) Len() int         { return k.kv.Len() }
func (k *tracedKV) SizeBytes() int64 { return k.kv.SizeBytes() }
func (k *tracedKV) Close() error     { return k.kv.Close() }
func (k *tracedKV) getB(key []byte) ([]byte, bool, error) {
	g := k.kv.(kvstore.ByteKeyGetter)
	if !k.tr.kvOn.Load() {
		return g.GetB(key)
	}
	t0 := time.Now()
	v, ok, err := g.GetB(key)
	k.record(kvGet, t0, len(v))
	return v, ok, err
}
func (k *tracedKV) sync() error { return k.kv.(kvstore.Syncer).Sync() }

type tracedKVB struct{ *tracedKV }

func (k tracedKVB) GetB(key []byte) ([]byte, bool, error) { return k.getB(key) }

type tracedKVS struct{ *tracedKV }

func (k tracedKVS) Sync() error { return k.sync() }

type tracedKVBS struct{ *tracedKV }

func (k tracedKVBS) GetB(key []byte) ([]byte, bool, error) { return k.getB(key) }
func (k tracedKVBS) Sync() error                           { return k.sync() }

// wrapKV decorates kv; the result implements kvstore.ByteKeyGetter and
// kvstore.Syncer exactly when kv does, so callers that type-assert for
// them take the same paths as without the decorator.
func wrapKV(kv kvstore.KV, tr *tracer) kvstore.KV {
	base := &tracedKV{kv: kv, tr: tr}
	_, b := kv.(kvstore.ByteKeyGetter)
	_, s := kv.(kvstore.Syncer)
	switch {
	case b && s:
		return tracedKVBS{base}
	case b:
		return tracedKVB{base}
	case s:
		return tracedKVS{base}
	}
	return base
}

// --- span analysis --------------------------------------------------------------

// spanStats summarises the recorded spans for the per-layer metrics.
type spanStats struct {
	coreSelfMs    map[string][]float64 // core op -> self time per call
	coreStoreB    map[uint64]int64     // core span ID -> store_model bulk bytes below it
	derive        []*span              // core derive spans
	rpcDurMs      map[string][]float64 // method -> rpc span durations
	rpcBytes      map[string]int64     // method -> rpc bulk bytes
	rpcCalls      int
	rpcErrors     int
	resCalls      int
	resOverheadMs float64 // summed resilient self time
}

// unionCovered returns how much of [lo, hi] the intervals cover.
func unionCovered(lo, hi int64, iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered int64
	cur := lo
	for _, x := range iv {
		s, e := x[0], x[1]
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			covered += e - s
			cur = e
		}
	}
	return covered
}

func (t *tracer) analyse() *spanStats {
	t.mu.Lock()
	spans := append([]*span(nil), t.spans...)
	t.mu.Unlock()
	st := &spanStats{
		coreSelfMs: make(map[string][]float64),
		coreStoreB: make(map[uint64]int64),
		rpcDurMs:   make(map[string][]float64),
		rpcBytes:   make(map[string]int64),
	}
	children := make(map[uint64][][2]int64)
	for _, sp := range spans {
		if sp.parent != 0 {
			children[sp.parent] = append(children[sp.parent], [2]int64{sp.start, sp.end})
		}
	}
	for _, sp := range spans {
		dur := sp.end - sp.start
		self := dur - unionCovered(sp.start, sp.end, children[sp.id])
		switch sp.kind {
		case kindCore:
			st.coreSelfMs[sp.name] = append(st.coreSelfMs[sp.name], float64(self)/1e6)
			if sp.name == opDerive25 || sp.name == opDerive100 {
				st.derive = append(st.derive, sp)
			}
		case kindResilient:
			st.resCalls++
			st.resOverheadMs += float64(self) / 1e6
		case kindRPC:
			st.rpcCalls++
			if sp.failed {
				st.rpcErrors++
			}
			st.rpcDurMs[sp.name] = append(st.rpcDurMs[sp.name], float64(dur)/1e6)
			st.rpcBytes[sp.name] += sp.bytes
			if sp.name == "store_model" {
				st.coreStoreB[sp.root] += sp.bytes
			}
		}
	}
	return st
}

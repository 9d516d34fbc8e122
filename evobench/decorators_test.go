package main

import (
	"context"
	"testing"
	"time"

	"repro/internal/dedup"
	"repro/internal/kvstore"
	"repro/internal/resilient"
	"repro/internal/rpc"
)

type ctxKey struct{}

// recordingConn remembers the last call it received.
type recordingConn struct {
	ctx  context.Context
	name string
	req  rpc.Message
	resp rpc.Message
}

func (c *recordingConn) Call(ctx context.Context, name string, req rpc.Message) (rpc.Message, error) {
	c.ctx, c.name, c.req = ctx, name, req
	return c.resp, nil
}
func (c *recordingConn) Addr() string { return "recording" }
func (c *recordingConn) Close() error { return nil }

// healthyConn adds the three health-reporting methods.
type healthyConn struct{ recordingConn }

func (c *healthyConn) Healthy() bool                           { return false }
func (c *healthyConn) Score() float64                          { return 0.25 }
func (c *healthyConn) LatencyPercentile(float64) time.Duration { return 7 * time.Millisecond }

func TestConnDecoratorsPassCallsThrough(t *testing.T) {
	for _, kind := range []spanKind{kindRPC, kindResilient} {
		for _, traced := range []bool{false, true} {
			inner := &recordingConn{resp: rpc.Message{Meta: []byte("m"), Bulk: []byte("resp")}}
			tr := newTracer()
			c := wrapConn(inner, tr, kind)
			ctx, cancel := context.WithDeadline(context.WithValue(context.Background(), ctxKey{}, "v"), time.Now().Add(time.Hour))
			var core *span
			if traced {
				ctx, core = tr.startCore(ctx, opLoad)
			}
			req := rpc.Message{Meta: []byte("meta"), Bulk: []byte("flat"), BulkVec: [][]byte{[]byte("a"), []byte("bc")}}
			resp, err := c.Call(ctx, "evostore.read_segments", req)
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			if inner.name != "evostore.read_segments" {
				t.Errorf("name %q", inner.name)
			}
			if &inner.req.Bulk[0] != &req.Bulk[0] || len(inner.req.BulkVec) != 2 ||
				&inner.req.BulkVec[0][0] != &req.BulkVec[0][0] || &inner.req.BulkVec[1][0] != &req.BulkVec[1][0] ||
				&inner.req.Meta[0] != &req.Meta[0] {
				t.Errorf("kind %v traced %t: request buffers not passed by reference", kind, traced)
			}
			if &resp.Bulk[0] != &inner.resp.Bulk[0] || &resp.Meta[0] != &inner.resp.Meta[0] {
				t.Errorf("kind %v traced %t: response not returned as is", kind, traced)
			}
			if inner.ctx.Value(ctxKey{}) != "v" {
				t.Errorf("kind %v traced %t: context value lost", kind, traced)
			}
			if dl, ok := inner.ctx.Deadline(); !ok || !dl.After(time.Now()) {
				t.Errorf("kind %v traced %t: deadline lost", kind, traced)
			}
			if !traced {
				if spanFrom(inner.ctx) != nil || len(tr.spans) != 0 {
					t.Errorf("kind %v: untraced call recorded a span", kind)
				}
				continue
			}
			if len(tr.spans) != 1 {
				t.Fatalf("kind %v: %d spans, want 1", kind, len(tr.spans))
			}
			sp := tr.spans[0]
			if sp.kind != kind || sp.parent != core.id || sp.root != core.id || sp.name != "read_segments" {
				t.Errorf("span %+v under core %d", sp, core.id)
			}
			if want := int64(req.BulkLen() + resp.BulkLen()); sp.bytes != want {
				t.Errorf("span bytes %d, want %d", sp.bytes, want)
			}
			// Only the resilient decorator re-parents the calls below it.
			if below := spanFrom(inner.ctx); (kind == kindResilient) != (below == sp) {
				t.Errorf("kind %v: inner context carries span %v", kind, below)
			}
		}
	}
}

func TestConnDecoratorForwardsHealth(t *testing.T) {
	c := wrapConn(&healthyConn{}, newTracer(), kindResilient)
	h, ok := c.(healthReporter)
	s, ok2 := c.(scoreReporter)
	l, ok3 := c.(latencyReporter)
	if !ok || !ok2 || !ok3 {
		t.Fatal("decorator over a health-reporting conn hides its reporting methods")
	}
	if h.Healthy() || s.Score() != 0.25 || l.LatencyPercentile(0.9) != 7*time.Millisecond {
		t.Error("reporting methods not forwarded")
	}
	if _, ok := wrapConn(&recordingConn{}, newTracer(), kindRPC).(healthReporter); ok {
		t.Error("decorator over a plain conn claims to report health")
	}
	// resilient.Conn is what the hub's upper decorator wraps.
	rc := wrapConn(resilient.Wrap(&recordingConn{}, resilient.Options{}), newTracer(), kindResilient)
	if _, ok := rc.(healthReporter); !ok {
		t.Error("decorator over resilient.Conn hides Healthy")
	}
}

// syncOnlyKV is a KV that implements kvstore.Syncer but not ByteKeyGetter.
type syncOnlyKV struct{ kvstore.KV }

func (syncOnlyKV) Sync() error { return nil }

// plainKV hides every optional interface of its target.
type plainKV struct{ kvstore.KV }

func TestKVDecoratorKeepsOptionalInterfaces(t *testing.T) {
	mem := kvstore.NewMemKV(1)
	cases := []struct {
		name  string
		kv    kvstore.KV
		getB  bool
		syncs bool
	}{
		{"MemKV", mem, true, false},
		{"dedup.KV", dedup.Wrap(kvstore.NewMemKV(1), dedup.Options{}), true, true},
		{"sync only", syncOnlyKV{mem}, false, true},
		{"plain", plainKV{mem}, false, false},
	}
	for _, c := range cases {
		_, b0 := c.kv.(kvstore.ByteKeyGetter)
		_, s0 := c.kv.(kvstore.Syncer)
		if b0 != c.getB || s0 != c.syncs {
			t.Fatalf("%s: test target has GetB=%t Sync=%t", c.name, b0, s0)
		}
		w := wrapKV(c.kv, newTracer())
		_, b := w.(kvstore.ByteKeyGetter)
		_, s := w.(kvstore.Syncer)
		if b != c.getB || s != c.syncs {
			t.Errorf("%s: decorator has GetB=%t Sync=%t, target GetB=%t Sync=%t", c.name, b, s, c.getB, c.syncs)
		}
	}
}

func TestKVDecoratorCountsWhenOn(t *testing.T) {
	tr := newTracer()
	kv := wrapKV(kvstore.NewMemKV(1), tr)
	if err := kv.Put("a", []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	if tr.kv[kvPut].calls.Load() != 0 {
		t.Fatal("counted while off")
	}
	tr.kvOn.Store(true)
	if err := kv.Put("cas/b", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := kv.(kvstore.ByteKeyGetter).GetB([]byte("a")); err != nil || !ok || string(v) != "xyz" {
		t.Fatalf("GetB = %q %t %v", v, ok, err)
	}
	if err := kv.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if tr.kv[kvPut].calls.Load() != 1 || tr.kv[kvPut].bytes.Load() != 5 || tr.casPuts.Load() != 1 ||
		tr.kv[kvGet].calls.Load() != 1 || tr.kv[kvGet].bytes.Load() != 3 || tr.kv[kvDelete].calls.Load() != 1 {
		t.Errorf("counters put=%d/%dB get=%d/%dB delete=%d cas=%d",
			tr.kv[kvPut].calls.Load(), tr.kv[kvPut].bytes.Load(), tr.kv[kvGet].calls.Load(),
			tr.kv[kvGet].bytes.Load(), tr.kv[kvDelete].calls.Load(), tr.casPuts.Load())
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	tr := newTracer()
	add := func(id, parent uint64, kind spanKind, name string, start, end int64) {
		tr.spans = append(tr.spans, &span{id: id, parent: parent, root: 1, kind: kind, name: name, start: start, end: end})
	}
	add(1, 0, kindCore, opLoad, 0, 100)
	add(2, 1, kindRPC, "get_meta", 10, 30)
	add(3, 1, kindRPC, "read_segments", 20, 50)  // overlaps span 2
	add(4, 1, kindRPC, "read_segments", 90, 120) // runs past the parent
	st := tr.analyse()
	if got := st.coreSelfMs[opLoad]; len(got) != 1 || got[0] != 50e-6 {
		t.Errorf("self time %v ms, want [5e-05]", got)
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/tensor"
)

// rpcMethods are the methods whose rpc spans the per-layer result reports.
var rpcMethods = []string{"store_model", "read_segments", "get_meta", "lcp_query", "inc_ref", "dec_ref", "retire"}

// gcCPU reads the cumulative GC and total CPU seconds of the process.
func gcCPU() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// tensorRates times the tensor package's public functions on ws, each
// until it has run for at least 250 ms: Fingerprint over every tensor,
// EncodeSet per vertex, and DecodeSet plus Clone per vertex (what
// core.Load does). Rates are MiB of tensor data per second.
func tensorRates(wss []model.WeightSet) (fp, enc, dec float64) {
	var bytes float64
	var segs [][]byte
	for _, ws := range wss {
		bytes += float64(ws.SizeBytes())
		for _, ts := range ws {
			if len(ts) > 0 {
				segs = append(segs, tensor.EncodeSet(ts))
			}
		}
	}
	rate := func(pass func()) float64 {
		t0 := time.Now()
		n := 0
		for n == 0 || time.Since(t0) < 250*time.Millisecond {
			pass()
			n++
		}
		return bytes * float64(n) / (1 << 20) / time.Since(t0).Seconds()
	}
	var sink uint64
	fp = rate(func() {
		for _, ws := range wss {
			for _, ts := range ws {
				for _, t := range ts {
					sink += t.Fingerprint()
				}
			}
		}
	})
	enc = rate(func() {
		for _, ws := range wss {
			for _, ts := range ws {
				if len(ts) > 0 {
					sink += uint64(len(tensor.EncodeSet(ts)))
				}
			}
		}
	})
	dec = rate(func() {
		for _, s := range segs {
			ts, err := tensor.DecodeSet(s)
			if err != nil {
				panic(err) // segs were encoded just above
			}
			for _, t := range ts {
				sink += uint64(len(t.Clone().Data))
			}
		}
	})
	probeSink += sink
	return fp, enc, dec
}

// runTraced measures an untraced reference phase and then a traced phase
// on a fresh, decorated deployment of the same seed, each for half of d,
// and reports the per-layer metrics of the traced phase.
func runTraced(w workload, d time.Duration, res *result, hdr *header) error {
	half := d / 2
	fullGC()
	if _, err := w.setup(nil); err != nil {
		return err
	}
	pu, err := measure(w, half, 1, nil)
	if err != nil {
		return err
	}
	if err := teardown(w); err != nil {
		return err
	}
	tr := newTracer()
	fullGC()
	if _, err := w.setup(tr); err != nil {
		return err
	}
	pt, err := measure(w, half, 1, tr)
	if pt != nil {
		res.Attempted, res.Failed = pt.rec.attempted, pt.rec.failed
	}
	if err != nil {
		return err
	}
	layerMetrics(w, pu, pt, tr, res)
	hdr.describe(w, pt)
	if err := teardown(w); err != nil {
		return err
	}
	hdr.SpanFile = dumpSpans(tr, w.name(), hdr.Seed)
	return nil
}

// dumpSpans writes the traced phase's spans under .bench_build/ and
// returns the path, or a note when writing failed.
func dumpSpans(tr *tracer, name string, seed int64) string {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "not written: " + err.Error()
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.txt", name, seed))
	if err := tr.dump(path); err != nil {
		return "not written: " + err.Error()
	}
	return path
}

func layerMetrics(w workload, pu, pt *phase, tr *tracer, res *result) {
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	reqs := float64(pt.rec.requests)
	perReq := func(x float64) float64 { return ratio(x, reqs) }
	delta := func(name string) float64 { return float64(pt.after[name] - pt.before[name]) }
	st := tr.analyse()

	// core
	set("core.derive.self_ms", mean(append(st.coreSelfMs[opDerive25], st.coreSelfMs[opDerive100]...)), "ms")
	set("core.transfer.self_ms", mean(st.coreSelfMs[opTransfer]), "ms")
	set("core.load.self_ms", mean(st.coreSelfMs[opLoad]), "ms")
	set("core.query.self_ms", mean(st.coreSelfMs[opQuery]), "ms")
	set("core.derive.inherited_frac", ratio(float64(pt.rec.inherited), float64(pt.rec.prefixParam)), "ratio")
	var shipped, modified float64
	for _, sp := range st.derive {
		shipped += float64(st.coreStoreB[sp.id])
		modified += float64(sp.modBytes)
	}
	set("core.derive.shipped_per_modified", ratio(shipped, modified), "ratio")

	// tensor
	fp, enc, dec := tensorRates(w.sampleWeights())
	set("tensor.fingerprint_mb_s", fp, "MiB/s")
	set("tensor.encode_mb_s", enc, "MiB/s")
	set("tensor.decode_mb_s", dec, "MiB/s")

	// client
	set("client.segcache.hit_ratio", pt.hit, "ratio")
	for _, c := range []string{"coalesced_read", "read_failover", "score_demote", "replica_breaker_skip"} {
		set("client."+c, delta("client."+c), "count")
	}

	// resilient (hub only; 0 where the layer is absent)
	lower := 0
	for _, m := range st.rpcDurMs {
		lower += len(m)
	}
	set("resilient.attempts_per_call", ratio(float64(lower), float64(st.resCalls)), "ratio")
	set("resilient.overhead_ms", ratio(st.resOverheadMs, float64(st.resCalls)), "ms")
	set("rpc.retries", delta("rpc.retries"), "count")
	set("rpc.breaker_open", delta("rpc.breaker_open"), "count")

	// rpc
	for _, m := range rpcMethods {
		durs := st.rpcDurMs[m]
		set("rpc."+m+".calls", perReq(float64(len(durs))), "1/req")
		set("rpc."+m+".p50_ms", median(durs), "ms")
		set("rpc."+m+".bytes", perReq(float64(st.rpcBytes[m])), "B/req")
	}
	set("rpc.errors", float64(st.rpcErrors), "count")
	set("rpc.calls_per_request", perReq(float64(st.rpcCalls)), "1/req")

	// provider
	set("provider.read_coalesced_ratio",
		ratio(delta("provider.read_coalesced"), delta("provider.read_request")), "ratio")
	var segBytes, models float64
	for _, p := range w.deploy().providers {
		s := p.Stats()
		segBytes += float64(s.SegmentBytes)
		models += float64(s.Models)
	}
	set("provider.segment_bytes", segBytes, "B")
	set("provider.models", models, "count")

	// dedup (hub only; 0 where the layer is absent)
	var chunks float64
	for _, c := range w.deploy().cas {
		chunks += float64(c.Stats().Chunks)
	}
	hits := float64(pt.casHits1 - pt.casHits0)
	set("dedup.chunks", chunks, "count")
	set("dedup.hit_ratio", ratio(hits, hits+float64(tr.casPuts.Load())), "ratio")

	// kvstore
	for op := kvOp(0); op < numKVOps; op++ {
		c := &tr.kv[op]
		n := kvOpNames[op]
		set("kvstore."+n+".calls", perReq(float64(c.calls.Load())), "1/req")
		set("kvstore."+n+".busy_ms", perReq(float64(c.busyNs.Load())/1e6), "ms/req")
		set("kvstore."+n+".bytes", perReq(float64(c.bytes.Load())), "B/req")
	}

	// runtime
	set("runtime.alloc_mb_per_request", perReq(float64(pt.mem1.TotalAlloc-pt.mem0.TotalAlloc)/(1<<20)), "MiB/req")
	set("runtime.gc_cpu_frac", ratio(pt.gc1[0]-pt.gc0[0], pt.gc1[1]-pt.gc0[1]), "ratio")

	set("trace.overhead_frac", 1-ratio(requestRate(pt.rec), requestRate(pu.rec)), "ratio")
}

// sampleInfo describes one latency series of the header.
type sampleInfo struct {
	N         int     `json:"n"`
	P50       float64 `json:"p50_ms"`
	P90       float64 `json:"p90_ms"`
	BeyondP90 int     `json:"beyond_p90"`
	HitRatio  float64 `json:"segcache_hit_ratio"`
}

// header is printed before the result line: the environment, the
// workload's cache state and the sample counts behind every number.
type header struct {
	Env             envHeader             `json:"env"`
	Workload        string                `json:"workload"`
	Seed            int64                 `json:"seed"`
	Workers         int                   `json:"workers"`
	Seconds         float64               `json:"seconds"`
	Traced          bool                  `json:"traced"`
	Fabric          string                `json:"fabric"`
	Backend         string                `json:"backend"`
	Replicas        int                   `json:"replicas"`
	LiveModels      int                   `json:"live_models"`
	WorkingSetBytes int64                 `json:"working_set_bytes"`
	CacheBytes      int64                 `json:"client_cache_bytes"`
	HitRatio        float64               `json:"segcache_hit_ratio"`
	Requests        int                   `json:"requests"`
	ElapsedS        float64               `json:"elapsed_s"`
	SetupS          []float64             `json:"setup_s,omitempty"`
	Samples         map[string]sampleInfo `json:"samples"`
	SpanFile        string                `json:"span_file,omitempty"`
	Probe           *hostProbe            `json:"host"`
}

func (h *header) describe(w workload, p *phase) {
	d := w.deploy()
	h.Fabric, h.Backend, h.Replicas = d.fabric, d.backend, d.replicas
	h.LiveModels, h.WorkingSetBytes, h.CacheBytes = p.live, p.wsBytes, segCacheBytes
	h.HitRatio, h.Requests, h.ElapsedS = p.hit, p.rec.requests, p.elapsed.Seconds()
	h.Samples = make(map[string]sampleInfo)
	for _, op := range timedOps {
		xs := p.rec.lat[op]
		p90 := quantile(xs, 0.9)
		hits, misses := float64(p.rec.segHits[op]), float64(p.rec.segMisses[op])
		h.Samples[op] = sampleInfo{N: len(xs), P50: quantile(xs, 0.5), P90: p90, BeyondP90: beyond(xs, p90),
			HitRatio: ratio(hits, hits+misses)}
	}
}

func (h *header) print(out *os.File) {
	b, _ := json.Marshal(h)
	var sb strings.Builder
	fmt.Fprintf(&sb, "# evobench %s seed=%d trace=%t: %d requests in %.1fs, working set %.0f MiB vs cache %d MiB, hit ratio %.3f\n",
		h.Workload, h.Seed, h.Traced, h.Requests, h.ElapsedS, float64(h.WorkingSetBytes)/(1<<20), h.CacheBytes>>20, h.HitRatio)
	fmt.Fprintf(&sb, "header %s\n", b)
	out.WriteString(sb.String())
}

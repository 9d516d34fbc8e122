package main

// The frontdoor scenario measures the multi-tenant front door end to end
// over real TCP providers, in three phases tracked in BENCH_frontdoor.json:
//
//  1. Zipfian fan-in: several clients (each with its own segment cache and
//     flight group) hammer a skewed model popularity distribution; the
//     provider-side read executions are compared against the logical loads
//     issued. Coalescing plus the read-through cache should cut provider
//     fan-in by well over 5x.
//  2. Throttled-tenant isolation: a noisy tenant with unbounded demand and
//     a quiet tenant with modest demand share one throttled provider; the
//     noisy tenant must be held near its bucket rate while the quiet
//     tenant's p99 stays flat versus running alone.
//  3. Read-path allocations: a full Load+Release loop over TCP with the
//     cache off (pooled receive frames recycling every op) and with the
//     cache warm; the cache-off loop is compared against the tracked
//     ReadPath1M baseline in BENCH_bulk.json, which also reads the wire
//     with the cache off.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/frontdoor"
	"repro/internal/graph"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/ownermap"
	"repro/internal/proto"
	"repro/internal/provider"
	"repro/internal/rpc"
)

type zipfResult struct {
	Clients         int     `json:"clients"`
	Goroutines      int     `json:"goroutines_per_client"`
	Models          int     `json:"models"`
	Loads           int     `json:"loads"`
	ProviderExec    uint64  `json:"provider_read_exec"`
	ProviderReqs    uint64  `json:"provider_read_requests"`
	FanInReduction  float64 `json:"fan_in_reduction"`
	ClientCoalesced uint64  `json:"client_coalesced_reads"`
	CacheHits       uint64  `json:"cache_hits"`
	CacheMisses     uint64  `json:"cache_misses"`
	CacheHitRate    float64 `json:"cache_hit_rate"`
	LoadsPerSec     float64 `json:"loads_per_sec"`
}

type throttleResult struct {
	LimitOpsPerSec    float64 `json:"limit_ops_per_sec"`
	WindowSec         float64 `json:"window_sec"`
	DurationSec       float64 `json:"duration_sec"`
	NoisyAttempts     int     `json:"noisy_attempts"`
	NoisyAdmitted     int     `json:"noisy_admitted"`
	NoisyThrottled    int     `json:"noisy_throttled"`
	NoisyAdmittedRate float64 `json:"noisy_admitted_per_sec"`
	AdmitCeiling      float64 `json:"admit_ceiling_per_sec"` // bucket rate + burst amortized over the run
	QuietOps          int     `json:"quiet_ops"`
	QuietThrottled    int     `json:"quiet_throttled"`
	QuietP99AloneMs   float64 `json:"quiet_p99_alone_ms"`
	QuietP99NoisyMs   float64 `json:"quiet_p99_contended_ms"`
}

type readPathResult struct {
	Op          string  `json:"op"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerS      float64 `json:"mb_per_s"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type frontdoorFile struct {
	Zipf          zipfResult       `json:"zipf"`
	Throttle      throttleResult   `json:"throttle"`
	ReadPath      []readPathResult `json:"read_path"`
	BulkBaseline  map[string]int64 `json:"bulk_baseline_allocs_per_op,omitempty"`
	AllocsReduced bool             `json:"read_path_allocs_reduced"`
}

// runFrontdoor drives the three front-door phases and optionally writes
// BENCH_frontdoor.json.
func runFrontdoor(args []string) error {
	fs := flag.NewFlagSet("frontdoor", flag.ExitOnError)
	out := fs.String("out", "", "write results to this JSON file (empty = print only)")
	smoke := fs.Bool("smoke", false, "scaled-down run for CI (seconds, not minutes)")
	benchtime := fs.String("benchtime", "1s", "read-path benchmark duration or count (e.g. 2s, 1x)")
	fs.Parse(args)

	zc := zipfConfig{clients: 3, goroutines: 8, models: 24, loads: 4000, nseg: 8, segBytes: 16 << 10}
	tc := throttleConfig{limit: 100, window: time.Second, dur: 2 * time.Second}
	if *smoke {
		zc = zipfConfig{clients: 2, goroutines: 4, models: 6, loads: 300, nseg: 4, segBytes: 4 << 10}
		tc = throttleConfig{limit: 50, window: time.Second, dur: 400 * time.Millisecond}
		*benchtime = "1x"
	}

	var f frontdoorFile
	var err error
	if f.Zipf, err = runZipfPhase(zc); err != nil {
		return fmt.Errorf("zipf phase: %w", err)
	}
	if f.Throttle, err = runThrottlePhase(tc); err != nil {
		return fmt.Errorf("throttle phase: %w", err)
	}
	if f.ReadPath, err = runReadPathPhase(*benchtime); err != nil {
		return fmt.Errorf("read-path phase: %w", err)
	}
	f.BulkBaseline = bulkBaselineAllocs()
	// BENCH_bulk's ReadPath1M runs with the segment cache off, so every
	// iteration is a wire read — the comparable front-door number is the
	// cache-off wire path, where pooled frames must beat plain buffers.
	if base, ok := f.BulkBaseline["ReadPath1M"]; ok {
		for _, rp := range f.ReadPath {
			if rp.Op == "FrontdoorReadPath1M" {
				f.AllocsReduced = rp.AllocsPerOp < base
			}
		}
	}

	if *out == "" {
		return nil
	}
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", *out)
	return nil
}

// --- shared harness ---------------------------------------------------------

// fdCluster is a TCP deployment with per-provider metrics registries, so
// the bench reads clean counters regardless of what ran before it.
type fdCluster struct {
	addrs []string
	regs  []*metrics.Registry
	lis   []interface{ Close() error }
}

func newFDCluster(n int, limits frontdoor.Limits) (*fdCluster, error) {
	c := &fdCluster{}
	for i := 0; i < n; i++ {
		p := provider.New(i, kvstore.NewMemKV(8))
		reg := metrics.NewRegistry()
		p.SetMetricsRegistry(reg)
		p.SetThrottle(limits)
		srv := rpc.NewServer()
		p.Register(srv)
		lis, addr, err := rpc.ListenAndServeTCP("127.0.0.1:0", srv)
		if err != nil {
			c.close()
			return nil, err
		}
		c.addrs = append(c.addrs, addr)
		c.regs = append(c.regs, reg)
		c.lis = append(c.lis, lis)
	}
	return c, nil
}

func (c *fdCluster) close() {
	for _, l := range c.lis {
		l.Close()
	}
}

// counterSum adds one named counter across every provider registry.
func (c *fdCluster) counterSum(name string) uint64 {
	var total uint64
	for _, reg := range c.regs {
		total += reg.Counter(name).Load()
	}
	return total
}

// dial builds a client on fresh connection pools (2 conns per provider).
func (c *fdCluster) dial(opts ...client.Option) (*client.Client, func()) {
	conns := make([]rpc.Conn, len(c.addrs))
	for i, a := range c.addrs {
		conns[i] = rpc.NewPool(a, 2, rpc.DialTCP)
	}
	cli := client.New(conns, opts...)
	return cli, func() {
		for _, cn := range conns {
			cn.Close()
		}
	}
}

// fdModel builds a chain-graph model of nseg self-owned segments.
func fdModel(id ownermap.ModelID, nseg, segBytes int) (*proto.ModelMeta, [][]byte) {
	gb := graph.NewBuilder(nseg)
	for i := 0; i < nseg; i++ {
		gb.AddVertex(graph.Vertex{ConfigSig: uint64(id)<<16 | uint64(i+1), ParamBytes: int64(segBytes)})
		if i > 0 {
			gb.AddEdge(graph.VertexID(i-1), graph.VertexID(i))
		}
	}
	meta := &proto.ModelMeta{
		Model: id, Seq: uint64(id), Quality: 0.5,
		Graph:    gb.Build(),
		OwnerMap: ownermap.New(id, uint64(id), nseg),
	}
	segs := make([][]byte, nseg)
	for i := range segs {
		segs[i] = make([]byte, segBytes)
		for j := range segs[i] {
			segs[i][j] = byte(int(id) + i + j)
		}
	}
	return meta, segs
}

// --- phase 1: zipfian fan-in -------------------------------------------------

type zipfConfig struct {
	clients, goroutines, models, loads, nseg, segBytes int
}

func runZipfPhase(cfg zipfConfig) (zipfResult, error) {
	cl, err := newFDCluster(4, frontdoor.Limits{})
	if err != nil {
		return zipfResult{}, err
	}
	defer cl.close()
	ctx := context.Background()

	setup, closeSetup := cl.dial()
	for id := 1; id <= cfg.models; id++ {
		meta, segs := fdModel(ownermap.ModelID(id), cfg.nseg, cfg.segBytes)
		if err := setup.Store(ctx, meta, segs); err != nil {
			closeSetup()
			return zipfResult{}, err
		}
	}
	closeSetup()

	regs := make([]*metrics.Registry, cfg.clients)
	clis := make([]*client.Client, cfg.clients)
	var closers []func()
	for i := range clis {
		regs[i] = metrics.NewRegistry()
		cli, closeCli := cl.dial(client.WithRegistry(regs[i]))
		clis[i] = cli
		closers = append(closers, closeCli)
	}
	defer func() {
		for _, c := range closers {
			c()
		}
	}()

	workers := cfg.clients * cfg.goroutines
	perWorker := cfg.loads / workers
	total := perWorker * workers
	var wg sync.WaitGroup
	var firstErr atomic.Value
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cli := clis[w%cfg.clients]
			r := rand.New(rand.NewSource(int64(w + 1)))
			z := rand.NewZipf(r, 1.3, 1, uint64(cfg.models-1))
			for i := 0; i < perWorker; i++ {
				id := ownermap.ModelID(z.Uint64() + 1)
				d, err := cli.Load(ctx, id)
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				d.Release()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, _ := firstErr.Load().(error); err != nil {
		return zipfResult{}, err
	}

	res := zipfResult{
		Clients:      cfg.clients,
		Goroutines:   cfg.goroutines,
		Models:       cfg.models,
		Loads:        total,
		ProviderExec: cl.counterSum("provider.read_exec"),
		ProviderReqs: cl.counterSum("provider.read_request"),
		LoadsPerSec:  float64(total) / elapsed.Seconds(),
	}
	for _, reg := range regs {
		res.ClientCoalesced += reg.Counter("client.coalesced_read").Load()
		res.CacheHits += reg.Counter("client.segcache_hit").Load()
		res.CacheMisses += reg.Counter("client.segcache_miss").Load()
	}
	if res.ProviderExec > 0 {
		res.FanInReduction = float64(total) / float64(res.ProviderExec)
	}
	if hm := res.CacheHits + res.CacheMisses; hm > 0 {
		res.CacheHitRate = float64(res.CacheHits) / float64(hm)
	}

	fmt.Println("\n=== Front door: zipfian fan-in ===")
	tbl := metrics.NewTable("Loads", "Provider execs", "Fan-in reduction", "Coalesced", "Cache hit rate", "Loads/s")
	tbl.Add(total, res.ProviderExec, fmt.Sprintf("%.1fx", res.FanInReduction),
		res.ClientCoalesced, fmt.Sprintf("%.1f%%", res.CacheHitRate*100), fmt.Sprintf("%.0f", res.LoadsPerSec))
	tbl.Render(os.Stdout)
	return res, nil
}

// --- phase 2: throttled-tenant isolation -------------------------------------

type throttleConfig struct {
	limit  float64
	window time.Duration
	dur    time.Duration
}

const (
	quietModel  = 100
	noisyModels = 6
	quietPace   = 25 * time.Millisecond
)

func runThrottlePhase(cfg throttleConfig) (throttleResult, error) {
	// One provider: both tenants contend for the same admission front door,
	// which is the isolation being demonstrated.
	cl, err := newFDCluster(1, frontdoor.Limits{OpsPerSec: cfg.limit, Window: cfg.window})
	if err != nil {
		return throttleResult{}, err
	}
	defer cl.close()
	ctx := context.Background()

	setup, closeSetup := cl.dial()
	for id := 1; id <= noisyModels; id++ {
		meta, segs := fdModel(ownermap.ModelID(id), 4, 8<<10)
		if err := setup.Store(ctx, meta, segs); err != nil {
			closeSetup()
			return throttleResult{}, err
		}
	}
	meta, segs := fdModel(quietModel, 4, 8<<10)
	if err := setup.Store(ctx, meta, segs); err != nil {
		closeSetup()
		return throttleResult{}, err
	}
	closeSetup()

	// Caches off: every read must cross the wire, or the tenants would
	// simply stop talking to the provider being measured.
	quiet, closeQuiet := cl.dial(client.WithTenant("quiet"), client.WithSegCacheBytes(0),
		client.WithRegistry(metrics.NewRegistry()))
	defer closeQuiet()
	noisy, closeNoisy := cl.dial(client.WithTenant("noisy"), client.WithSegCacheBytes(0),
		client.WithRegistry(metrics.NewRegistry()))
	defer closeNoisy()

	res := throttleResult{
		LimitOpsPerSec: cfg.limit,
		WindowSec:      cfg.window.Seconds(),
		DurationSec:    cfg.dur.Seconds(),
	}

	// Baseline: the quiet tenant alone.
	alone, throttledAlone, err := quietRun(ctx, quiet, cfg.dur)
	if err != nil {
		return res, err
	}
	res.QuietP99AloneMs = p99ms(alone)
	res.QuietThrottled += throttledAlone

	// Contended: the noisy tenant hammers with unbounded demand while the
	// quiet tenant keeps its modest pace.
	var wg sync.WaitGroup
	wg.Add(1)
	var noisyErr error
	go func() {
		defer wg.Done()
		deadline := time.Now().Add(cfg.dur)
		for i := 0; time.Now().Before(deadline); i++ {
			id := ownermap.ModelID(i%noisyModels + 1)
			res.NoisyAttempts++
			d, err := noisy.Load(ctx, id)
			if err != nil {
				if _, ok := frontdoor.RetryAfterFromError(err); ok {
					res.NoisyThrottled++
					continue
				}
				noisyErr = err
				return
			}
			d.Release()
			res.NoisyAdmitted++
		}
	}()
	contended, throttledContended, err := quietRun(ctx, quiet, cfg.dur)
	wg.Wait()
	if err != nil {
		return res, err
	}
	if noisyErr != nil {
		return res, noisyErr
	}
	res.QuietP99NoisyMs = p99ms(contended)
	res.QuietThrottled += throttledContended
	res.QuietOps = len(alone) + len(contended)
	res.NoisyAdmittedRate = float64(res.NoisyAdmitted) / cfg.dur.Seconds()
	// A fresh tenant's buckets admit up to one window of burst on top of
	// the refill rate; amortized over the run that is the hard ceiling.
	res.AdmitCeiling = cfg.limit * (cfg.dur.Seconds() + cfg.window.Seconds()) / cfg.dur.Seconds()

	fmt.Println("\n=== Front door: throttled-tenant isolation ===")
	tbl := metrics.NewTable("Limit ops/s", "Noisy admitted/s", "Ceiling/s", "Noisy throttled",
		"Quiet p99 alone", "Quiet p99 contended", "Quiet throttled")
	tbl.Add(cfg.limit, fmt.Sprintf("%.0f", res.NoisyAdmittedRate), fmt.Sprintf("%.0f", res.AdmitCeiling),
		res.NoisyThrottled, fmt.Sprintf("%.2fms", res.QuietP99AloneMs),
		fmt.Sprintf("%.2fms", res.QuietP99NoisyMs), res.QuietThrottled)
	tbl.Render(os.Stdout)
	if res.NoisyAdmittedRate > res.AdmitCeiling*1.1 {
		return res, fmt.Errorf("noisy tenant admitted %.0f ops/s, above the %.0f ceiling: throttle not holding",
			res.NoisyAdmittedRate, res.AdmitCeiling)
	}
	return res, nil
}

// quietRun paces loads of the quiet model and returns their latencies.
// Throttled refusals are counted, not fatal — the phase reports them so a
// regression in tenant isolation shows up in the tracked numbers.
func quietRun(ctx context.Context, cli *client.Client, dur time.Duration) ([]time.Duration, int, error) {
	var lat []time.Duration
	throttled := 0
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) {
		start := time.Now()
		d, err := cli.Load(ctx, quietModel)
		if err != nil {
			if _, ok := frontdoor.RetryAfterFromError(err); ok {
				throttled++
				time.Sleep(quietPace)
				continue
			}
			return nil, throttled, err
		}
		d.Release()
		lat = append(lat, time.Since(start))
		time.Sleep(quietPace)
	}
	return lat, throttled, nil
}

func p99ms(lat []time.Duration) float64 {
	if len(lat) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return float64(sorted[len(sorted)*99/100].Nanoseconds()) / 1e6
}

// --- phase 3: read-path allocations ------------------------------------------

func runReadPathPhase(benchtime string) ([]readPathResult, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, fmt.Errorf("bad -benchtime %q: %w", benchtime, err)
	}

	scenarios := []struct {
		name  string
		cache int64 // segment cache bound; 0 = off
	}{
		{"FrontdoorReadPath1M", 0},
		{"FrontdoorCachedRead1M", 64 << 20},
	}
	var out []readPathResult
	tbl := metrics.NewTable("Benchmark", "ns/op", "MB/s", "B/op", "allocs/op")
	for _, sc := range scenarios {
		r := testing.Benchmark(benchFrontdoorRead(sc.cache))
		if r.N == 0 {
			return nil, fmt.Errorf("scenario %s did not run", sc.name)
		}
		nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
		mbPerS := 0.0
		if r.Bytes > 0 && r.T > 0 {
			mbPerS = float64(r.Bytes) * float64(r.N) / 1e6 / r.T.Seconds()
		}
		e := readPathResult{
			Op: sc.name, NsPerOp: nsPerOp, MBPerS: mbPerS,
			BytesPerOp: r.AllocedBytesPerOp(), AllocsPerOp: r.AllocsPerOp(),
		}
		out = append(out, e)
		tbl.Add(sc.name, fmt.Sprintf("%.0f", nsPerOp), fmt.Sprintf("%.1f", mbPerS),
			e.BytesPerOp, e.AllocsPerOp)
	}
	fmt.Println("\n=== Front door: read-path allocations (vs BENCH_bulk.json ReadPath1M) ===")
	tbl.Render(os.Stdout)
	return out, nil
}

// benchFrontdoorRead mirrors bulkbench's ReadPath1M shape (16 x 64 KiB
// segments, one TCP provider, 4-connection pool) but drives the front
// door: Load under a lease, then Release so the pooled receive frames
// recycle between iterations.
func benchFrontdoorRead(cacheBytes int64) func(b *testing.B) {
	return func(b *testing.B) {
		p := provider.New(0, kvstore.NewMemKV(8))
		p.SetMetricsRegistry(metrics.NewRegistry())
		srv := rpc.NewServer()
		p.Register(srv)
		lis, addr, err := rpc.ListenAndServeTCP("127.0.0.1:0", srv)
		if err != nil {
			b.Fatal(err)
		}
		defer lis.Close()
		pool := rpc.NewPool(addr, 4, rpc.DialTCP)
		defer pool.Close()
		cache := cacheBytes
		if cache == 0 {
			cache = -1 // negative disables, 0 would mean "keep the default"
		}
		cli := client.New([]rpc.Conn{pool},
			client.WithSegCacheBytes(cache), client.WithRegistry(metrics.NewRegistry()))

		ctx := context.Background()
		const nseg, segBytes = 16, 64 << 10
		meta, segs := fdModel(1, nseg, segBytes)
		if err := cli.Store(ctx, meta, segs); err != nil {
			b.Fatal(err)
		}
		if d, err := cli.Load(ctx, 1); err != nil { // warm pools and cache
			b.Fatal(err)
		} else {
			d.Release()
		}
		b.SetBytes(int64(nseg) * int64(segBytes))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d, err := cli.Load(ctx, 1)
			if err != nil {
				b.Fatal(err)
			}
			if len(d.Segments) != nseg {
				b.Fatal("short load")
			}
			d.Release()
		}
	}
}

// bulkBaselineAllocs reads the tracked read-path allocs from
// BENCH_bulk.json ("after" phase) for side-by-side comparison. Best
// effort: a missing or unreadable file just omits the baseline.
func bulkBaselineAllocs() map[string]int64 {
	data, err := os.ReadFile("BENCH_bulk.json")
	if err != nil {
		return nil
	}
	var f bulkFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil
	}
	out := map[string]int64{}
	for _, e := range f.Entries {
		if e.Phase == "after" && (e.Op == "ReadPath1M" || e.Op == "ReadPath64M") {
			out[e.Op] = e.AllocsPerOp
		}
	}
	return out
}

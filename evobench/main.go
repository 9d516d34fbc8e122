// Command evobench is the repository's benchmark. It drives the public
// core.Repository API through one of three seeded, closed-loop workloads
// and prints, as the last line of its output, one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
//
//	bash evobench/run.sh --workload evolve-large --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and what each one shows.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/ownermap"
)

// workload is one of the benchmark's traffic mixes.
type workload interface {
	name() string
	// setup starts a fresh deployment (decorated when tr is non-nil) and
	// populates it, returning the set-up time.
	setup(tr *tracer) (time.Duration, error)
	// run drives the workload's clients until p ends the phase and returns
	// one recorder per window of p. Spans go to tr when non-nil.
	run(p pacer, tr *tracer) ([]*recorder, error)
	liveMembers() []member
	deploy() *deployment
	workers() int
	// sampleWeights returns some of the workload's own weights for the
	// tensor-layer rates.
	sampleWeights() []model.WeightSet
}

var workloadNames = []string{"evolve-large", "evolve-search", "hub-tcp"}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "evolve-large":
		return newEvolve(evolveLarge, seed)
	case "evolve-search":
		return newEvolve(evolveSearch, seed)
	case "hub-tcp":
		return newHub(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// setupRepeats is how many times a run sets up its workload; setup_s is
// the median.
func setupRepeats(name string) int {
	switch name {
	case "hub-tcp":
		return 3
	case "evolve-search":
		return 9 // its set-up is the shortest
	}
	return 5
}

// measureWindows is how many equal windows an end-to-end measured phase
// is split into; requests_per_s is the median of the window rates.
const measureWindows = 5

// requestRate is completed requests per second of worker time.
func requestRate(r *recorder) float64 { return ratio(float64(r.requests), r.busy.Seconds()) }

// warmup is the unmeasured lead-in of every measured phase of length d:
// 2 s, or a quarter of d for shorter phases.
func warmup(d time.Duration) time.Duration { return min(2*time.Second, d/4) }

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	wl := flag.String("workload", "", "workload: evolve-large, evolve-search or hub-tcp")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 15, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "evobench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*wl, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, os.Stdout)
	if err != nil && !errors.Is(err, errCheck) {
		fmt.Fprintln(os.Stderr, "evobench:", err)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "evobench:", err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// phase is one measured phase's outcome.
type phase struct {
	windows            []*recorder
	rec                *recorder // all windows pooled
	elapsed            time.Duration
	hit                float64 // client segment-cache hit ratio over the phase
	heapMB             float64 // live heap after a forced GC at the end
	space              float64 // space_amp at the end
	wsBytes            int64   // unique segment bytes of the live models at the end
	live               int
	before             map[string]uint64 // metrics.Default snapshots
	after              map[string]uint64
	mem0               runtime.MemStats
	mem1               runtime.MemStats
	gc0                [2]float64 // GC and total CPU seconds at start
	gc1                [2]float64
	casHits0, casHits1 uint64 // summed dedup hits at start and end
}

// casHits sums the dedup wrappers' hit counters.
func casHits(d *deployment) uint64 {
	var n uint64
	for _, c := range d.cas {
		n += c.Stats().DedupHits
	}
	return n
}

// measure warms the workload up, then measures it for d in n windows.
func measure(w workload, d time.Duration, n int, tr *tracer) (*phase, error) {
	defer pinHeap()()
	if _, err := w.run(newTimePacer(warmup(d), 1), nil); err != nil {
		return nil, err
	}
	fullGC()
	p := &phase{before: metrics.Default.Snapshot()}
	runtime.ReadMemStats(&p.mem0)
	p.gc0 = gcCPU()
	p.casHits0 = casHits(w.deploy())
	if tr != nil {
		tr.reset()
		tr.kvOn.Store(true)
	}
	t0 := time.Now()
	windows, err := w.run(newTimePacer(d, n), tr)
	p.elapsed = time.Since(t0)
	p.windows, p.rec = windows, pooled(windows)
	if tr != nil {
		tr.kvOn.Store(false)
	}
	p.gc1 = gcCPU()
	p.casHits1 = casHits(w.deploy())
	runtime.ReadMemStats(&p.mem1)
	p.after = metrics.Default.Snapshot()
	if err != nil {
		return p, err
	}
	hits := float64(p.after["client.segcache_hit"] - p.before["client.segcache_hit"])
	misses := float64(p.after["client.segcache_miss"] - p.before["client.segcache_miss"])
	p.hit = ratio(hits, hits+misses)
	fullGC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	live := w.liveMembers()
	p.live = len(live)
	var full int64
	for _, m := range live {
		full += m.params
	}
	p.space = ratio(float64(w.deploy().backendBytes()), float64(full))
	p.wsBytes, err = workingSet(w.deploy(), live)
	return p, err
}

// workingSet sums the parameter bytes of the distinct segments the live
// models reference, from their owner maps (read outside any timing).
func workingSet(d *deployment, live []member) (int64, error) {
	type seg struct {
		owner ownermap.ModelID
		v     graph.VertexID
	}
	seen := make(map[seg]bool)
	var n int64
	for _, m := range live {
		meta, err := d.repo.GetMeta(context.Background(), m.id)
		if err != nil {
			return 0, checkf("metadata of live model %d: %v", m.id, err)
		}
		for v, e := range meta.OwnerMap.Entries {
			s := seg{e.Owner, graph.VertexID(v)}
			if !seen[s] {
				seen[s] = true
				n += meta.Graph.Vertices[v].ParamBytes
			}
		}
	}
	return n, nil
}

// teardown retires every live model and requires every provider to end
// with no models, no segments and no live references (refcount
// conservation), and every dedup wrapper with no chunks.
func teardown(w workload) error {
	d := w.deploy()
	defer d.close()
	for _, m := range w.liveMembers() {
		if _, err := d.repo.Retire(context.Background(), m.id); err != nil {
			return checkf("teardown retire of %d: %v", m.id, err)
		}
	}
	for i, p := range d.providers {
		if s := p.Stats(); s.Models != 0 || s.Segments != 0 || s.LiveRefs != 0 {
			return checkf("provider %d after teardown: %d models, %d segments, %d live refs",
				i, s.Models, s.Segments, s.LiveRefs)
		}
	}
	for i, c := range d.cas {
		if n := c.Stats().Chunks; n != 0 {
			return checkf("dedup wrapper %d after teardown: %d chunks", i, n)
		}
	}
	return nil
}

// run executes one benchmark run and writes the header to out.
func run(name string, seed int64, d time.Duration, traced bool, out *os.File) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	w, err := newWorkload(name, seed)
	if err != nil {
		return res, err
	}
	probe := startProbe()
	hdr := header{Env: environment(), Workload: name, Seed: seed, Workers: w.workers(),
		Seconds: d.Seconds(), Traced: traced, Probe: probe}
	if traced {
		err = runTraced(w, d, res, &hdr)
	} else {
		err = runPlain(w, d, res, &hdr)
	}
	probe.finish()
	res.Correct = err == nil
	if err != nil && !errors.Is(err, errCheck) {
		return res, err
	}
	hdr.print(out)
	return res, err
}

func runPlain(w workload, d time.Duration, res *result, hdr *header) error {
	n := setupRepeats(w.name())
	var setups []float64
	for i := 0; i < n; i++ {
		fullGC()
		s, err := w.setup(nil)
		if err != nil {
			return err
		}
		setups = append(setups, s.Seconds())
		if i < n-1 {
			if err := teardown(w); err != nil {
				return err
			}
		}
	}
	p, err := measure(w, d, measureWindows, nil)
	if p != nil {
		res.Attempted, res.Failed = p.rec.attempted, p.rec.failed
	}
	if err != nil {
		return err
	}
	if err := teardown(w); err != nil {
		return err
	}
	hdr.describe(w, p)
	hdr.SetupS = setups
	// The rate is the median over the phase's windows, so a host
	// disturbance confined to one or two windows does not move it.
	// Percentiles pool every window: rare operations (a hub client's 100%
	// fine-tunes) have too few samples per window for a median of window
	// percentiles to be steadier.
	r := p.rec
	q := func(op string, x float64) float64 { return quantile(r.lat[op], x) }
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["requests_per_s"] = metric{windowMedian(p.windows, requestRate), "1/s"}
	res.Metrics["ok_frac"] = metric{1 - ratio(float64(r.failed), float64(r.attempted)), "ratio"}
	res.Metrics["derive25_p50_ms"] = metric{q(opDerive25, 0.5), "ms"}
	res.Metrics["derive100_p50_ms"] = metric{q(opDerive100, 0.5), "ms"}
	res.Metrics["transfer_p50_ms"] = metric{q(opTransfer, 0.5), "ms"}
	res.Metrics["query_p50_ms"] = metric{q(opQuery, 0.5), "ms"}
	res.Metrics["load_p50_ms"] = metric{q(opLoad, 0.5), "ms"}
	res.Metrics["load_p90_ms"] = metric{q(opLoad, 0.9), "ms"}
	res.Metrics["retire_p50_ms"] = metric{q(opRetire, 0.5), "ms"}
	res.Metrics["space_amp"] = metric{p.space, "ratio"}
	res.Metrics["heap_live_mb"] = metric{p.heapMB, "MB"}
	return nil
}

// pinHeap switches the collector from GOGC pacing to a soft memory limit
// of twice the live heap plus 256 MiB, and returns a function that
// restores the defaults. The providers live in this process, so the heap
// holds their backends beside the client's cache, and its free pages are
// fragmented by 80 KiB tensor buffers. Under GOGC pacing the runtime hands
// a few MiB of them back to the OS after most collections, and the next
// calls to allocate there take a burst of page faults: about one
// evolve-large Load in fifteen paid ~1700 minor faults (+3 ms), which put
// load_p90_ms on the edge of that slow mode. Under the limit, and with
// run.sh's GODEBUG=madvdontneed=0 (pages are returned with MADV_FREE, so
// reusing one does not fault while the kernel has not reclaimed it), that
// share fell to about one in forty. Collections still run about as often
// as under GOGC 100.
func pinHeap() (restore func()) {
	fullGC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	prevLimit := debug.SetMemoryLimit(int64(2*ms.HeapAlloc) + 256<<20)
	prevPercent := debug.SetGCPercent(-1)
	return func() {
		debug.SetGCPercent(prevPercent)
		debug.SetMemoryLimit(prevLimit)
	}
}

// fullGC collects twice, so objects parked in sync.Pool victim caches by
// the first cycle are freed by the second and the live heap reads steady.
func fullGC() {
	runtime.GC()
	runtime.GC()
}

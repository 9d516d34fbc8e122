package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"
)

func TestDecksHaveExactProportions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	total := 0
	for _, n := range deckCounts {
		total += n
	}
	if total != 40 || deckCounts[reqLoad]*10 != 6*total || deckCounts[reqSearch]*10 != 3*total ||
		deckCounts[reqFineTune]*10 != total {
		t.Fatalf("deck counts %v are not 60/30/10", deckCounts)
	}
	for i := 0; i < 200; i++ {
		d := newDeck(rng)
		var got [len(deckCounts)]int
		for _, k := range d {
			got[k]++
		}
		if len(d) != total || got != deckCounts {
			t.Fatalf("deck %d: %v, want %v", i, got, deckCounts)
		}
	}
	// Each deck's fine-tunes train 25% three times and 100% once.
	for deck := 0; deck < 5; deck++ {
		var quarter, full int
		for i := 0; i < deckCounts[reqFineTune]; i++ {
			switch fineTuneFraction(deck*deckCounts[reqFineTune] + i) {
			case 0.25:
				quarter++
			case 1:
				full++
			}
		}
		if quarter != 3 || full != 1 {
			t.Errorf("deck %d: %d fine-tunes train 25%% and %d train 100%%, want 3 and 1", deck, quarter, full)
		}
	}
}

// countPacer ends a phase of one window after n boundary checks. It is
// for a single worker only.
type countPacer struct{ n, checks int }

func (p *countPacer) next() (int, bool) {
	p.checks++
	return 0, p.checks > p.n
}

func (p *countPacer) windows() int { return 1 }

// runCycles sets w up (traced when tr is non-nil), runs it until its n-th
// request boundary, and returns the providers' summed segment bytes
// before tearing down.
func runCycles(t *testing.T, w workload, tr *tracer, n int) uint64 {
	t.Helper()
	if _, err := w.setup(tr); err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		tr.kvOn.Store(true)
	}
	recs, err := w.run(&countPacer{n: n}, tr)
	if err != nil {
		t.Fatal(err)
	}
	rec := pooled(recs)
	if rec.failed != 0 || rec.requests == 0 {
		t.Fatalf("%d of %d calls failed over %d requests", rec.failed, rec.attempted, rec.requests)
	}
	var seg uint64
	for _, p := range w.deploy().providers {
		seg += p.Stats().SegmentBytes
	}
	if err := teardown(w); err != nil {
		t.Fatal(err)
	}
	return seg
}

func TestTracedRunStoresWhatUntracedStores(t *testing.T) {
	for _, name := range []string{"evolve-large", "evolve-search"} {
		w, err := newWorkload(name, 5)
		if err != nil {
			t.Fatal(err)
		}
		plain := runCycles(t, w, nil, 3)
		tr := newTracer()
		traced := runCycles(t, w, tr, 3)
		if plain != traced {
			t.Errorf("%s: provider.segment_bytes %d untraced, %d traced", name, plain, traced)
		}
		if len(tr.spans) == 0 || tr.kv[kvPut].calls.Load() == 0 {
			t.Errorf("%s: traced run recorded %d spans and %d kvstore puts", name, len(tr.spans), tr.kv[kvPut].calls.Load())
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must match.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONNamesPrintedMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	for i := range names {
		if i < len(workloadNames) && names[i] != workloadNames[i] {
			t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
		}
	}
	devnull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	for _, traced := range []bool{false, true} {
		res, err := run("evolve-search", 1, 400*time.Millisecond, traced, devnull)
		if err != nil || !res.Correct {
			t.Fatalf("traced=%t: correct=%t err=%v", traced, res.Correct, err)
		}
		want := map[string]string{}
		if traced {
			for _, m := range spec.PerLayer {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range spec.EndToEnd {
				want[m.Name] = m.Unit
			}
		}
		var extra, missing []string
		for name, m := range res.Metrics {
			if unit, ok := want[name]; !ok {
				extra = append(extra, name)
			} else if unit != m.Unit {
				t.Errorf("%s: printed unit %q, BENCHMARK.json %q", name, m.Unit, unit)
			}
		}
		for name := range want {
			if _, ok := res.Metrics[name]; !ok {
				missing = append(missing, name)
			}
		}
		sort.Strings(extra)
		sort.Strings(missing)
		if len(extra)+len(missing) > 0 {
			t.Errorf("traced=%t: printed but not in BENCHMARK.json %v; in BENCHMARK.json but not printed %v", traced, extra, missing)
		}
	}
}

package main

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"repro/internal/archgen"
	"repro/internal/model"
)

// evolveParams sizes an evolve-* workload.
type evolveParams struct {
	// large: Uniform roots of modelBytes and 100 layers, half of whose
	// layers are shared, and a population derived from them. Otherwise a
	// catalog of small archgen.Catalog models that is also the population,
	// with a fresh archgen.Space draw per candidate.
	large      bool
	roots      int
	modelBytes int64
	population int
}

var (
	evolveLarge  = evolveParams{large: true, roots: 3, modelBytes: 8 << 20, population: 20}
	evolveSearch = evolveParams{population: 2000}
)

// evolve is an aged-evolution NAS loop with one worker. A cycle queries
// the best ancestor, transfers its prefix, trains 25% or 100% of the
// prefix (strictly alternating), stores the candidate with the automatic
// diff, retires the oldest member past the population size, and loads one
// member.
type evolve struct {
	p    evolveParams
	seed int64
	h    hasher

	roots   []*model.Flat     // large: root architectures
	rootWS  []model.WeightSet // large: root weights
	catalog []*model.Flat     // search: catalog architectures
	catWS   []model.WeightSet // search: catalog weights

	d      *deployment
	live   []member // roots (large) then the population, oldest first
	nRoots int
	best   []float64 // large: quality of each root's newest member
	rng    *rand.Rand
	cycle  int
}

func newEvolve(p evolveParams, seed int64) (*evolve, error) {
	e := &evolve{p: p, seed: seed, h: newHasher()}
	if p.large {
		for r := 0; r < p.roots; r++ {
			f, err := archgen.Uniform(archgen.UniformOptions{
				TotalBytes: p.modelBytes, Layers: 100, Variant: uint64(r), SharedFraction: 0.5,
			})
			if err != nil {
				return nil, err
			}
			e.roots = append(e.roots, f)
			e.rootWS = append(e.rootWS, model.Materialize(f, uint64(seed)<<8^uint64(r)))
		}
		return e, nil
	}
	cat, err := archgen.Catalog(seed, p.population, archgen.SpaceOptions{})
	if err != nil {
		return nil, err
	}
	e.catalog = cat
	for i, f := range cat {
		e.catWS = append(e.catWS, model.Materialize(f, uint64(seed)<<24^uint64(i)))
	}
	return e, nil
}

func (e *evolve) name() string {
	if e.p.large {
		return "evolve-large"
	}
	return "evolve-search"
}

// setup starts a deployment and populates it; it returns the set-up time
// (deployment start plus the populating calls).
func (e *evolve) setup(tr *tracer) (time.Duration, error) {
	t0 := time.Now()
	d, err := openInproc(tr)
	if err != nil {
		return 0, err
	}
	start := time.Since(t0)
	e.d, e.live, e.cycle = d, nil, 0
	e.rng = rand.New(rand.NewSource(e.seed))
	w := &worker{ctx: context.Background(), repo: d.repo, rec: newRecorder()}
	if e.p.large {
		e.best = make([]float64, len(e.roots))
		for r, f := range e.roots {
			e.best[r] = 0.5
			m := member{hash: e.h.weights(e.rootWS[r]), params: f.TotalParamBytes()}
			if err := w.call(opStore, 0, func(ctx context.Context) (err error) {
				m.id, err = d.repo.Store(ctx, f, e.rootWS[r], e.best[r])
				return err
			}); err != nil {
				return 0, err
			}
			e.live = append(e.live, m)
		}
		e.nRoots = len(e.live)
		for len(e.live)-e.nRoots < e.p.population {
			f, frac, q := e.next()
			m, err := derive(w, e.h, e.rng, f, frac, q)
			if err != nil {
				return 0, err
			}
			e.live = append(e.live, m)
		}
	} else {
		for i, f := range e.catalog {
			m := member{hash: e.h.weights(e.catWS[i]), params: f.TotalParamBytes()}
			if err := w.call(opStore, 0, func(ctx context.Context) (err error) {
				m.id, err = d.repo.Store(ctx, f, e.catWS[i], e.rng.Float64())
				return err
			}); err != nil {
				return 0, err
			}
			e.live = append(e.live, m)
		}
	}
	return start + w.rec.busy, nil
}

// next returns the cycle's candidate architecture, training fraction and
// quality, and advances the cycle. The fraction alternates strictly
// between 25% and 100%. evolve-large takes the roots in turn (the root
// count is odd, so both fractions reach every root) and raises the root's
// best quality with every candidate: BestAncestor then returns the root's
// newest member, and every seed grows three chains of the same shape and
// the same stored bytes. evolve-search draws a fresh search-space
// architecture with a quality uniform in [0, 1).
func (e *evolve) next() (f *model.Flat, frac, quality float64) {
	frac = 0.25
	if e.cycle%2 == 1 {
		frac = 1
	}
	if e.p.large {
		r := e.cycle % len(e.roots)
		f = e.roots[r]
		e.best[r] += 0.001 + 0.01*e.rng.Float64()
		quality = e.best[r]
	} else {
		var err error
		if f, err = archgen.Space(e.rng, archgen.SpaceOptions{}); err != nil {
			panic(err) // the default space options always build valid models
		}
		quality = e.rng.Float64()
	}
	e.cycle++
	return f, frac, quality
}

// step runs one cycle. A failed Repository call abandons the cycle (it is
// already booked as failed); a failed check is returned.
func (e *evolve) step(w *worker) error {
	f, frac, q := e.next()
	m, err := derive(w, e.h, e.rng, f, frac, q)
	if err != nil {
		return err
	}
	e.live = append(e.live, m)
	if len(e.live)-e.nRoots > e.p.population {
		oldest := e.live[e.nRoots]
		if err := retire(w, oldest); err != nil {
			return err
		}
		e.live = append(e.live[:e.nRoots], e.live[e.nRoots+1:]...)
	}
	pop := e.live[e.nRoots:]
	if err := loadAndCheck(w, e.h, pop[e.rng.Intn(len(pop))]); err != nil {
		return err
	}
	w.rec.requests++
	return nil
}

// run drives cycles, asking p for the window at every even cycle boundary
// so the 25% and 100% derives stay balanced within each window.
func (e *evolve) run(p pacer, tr *tracer) ([]*recorder, error) {
	recs := newRecorders(p.windows())
	w := &worker{ctx: context.Background(), repo: e.d.repo, tr: tr}
	for {
		if e.cycle%2 == 0 {
			k, done := p.next()
			if done {
				return recs, nil
			}
			w.rec = recs[k]
		}
		if err := e.step(w); err != nil && errors.Is(err, errCheck) {
			return recs, err
		}
	}
}

func (e *evolve) liveMembers() []member { return e.live }

func (e *evolve) deploy() *deployment { return e.d }

func (e *evolve) workers() int { return 1 }

func (e *evolve) sampleWeights() []model.WeightSet {
	if e.p.large {
		return e.rootWS[:1]
	}
	return e.catWS[:200]
}

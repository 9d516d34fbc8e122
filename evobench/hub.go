package main

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/archgen"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
)

const (
	hubClients    = 2 // closed-loop clients; the benchmark host has 2 cores
	hubLineages   = 8
	hubChain      = 5 // curated 25% fine-tunes per lineage, after the root
	hubModelBytes = 8 << 20
	hubWindow     = 2 // fine-tunes a client keeps before retiring its oldest
)

// deckKind is one entry of a client's request deck.
type deckKind uint8

const (
	reqLoad deckKind = iota
	reqSearch
	reqFineTune
)

// deckCounts gives the exact make-up of every deck: 60% loads, 30%
// searches and 10% fine-tunes, of which three train 25% and one 100%.
var deckCounts = [...]int{reqLoad: 24, reqSearch: 12, reqFineTune: 4}

// newDeck returns one shuffled deck with exactly deckCounts entries.
func newDeck(rng *rand.Rand) []deckKind {
	var d []deckKind
	for k, n := range deckCounts {
		for i := 0; i < n; i++ {
			d = append(d, deckKind(k))
		}
	}
	rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}

// hub is a model hub on four replicated TCP providers with dedup. Set-up
// curates lineages — a root plus chained 25% fine-tunes of rising quality —
// and two closed-loop clients then run shuffled decks of loads, searches
// and fine-tunes against them.
type hub struct {
	seed  int64
	h     hasher
	archs []*model.Flat

	d       *deployment
	curated []member // every curated model, lineage by lineage
	tips    []core.ModelID
	tipQ    []float64
	// popular maps a Zipf rank to an index into curated. Every client
	// shares it: the lineage order is seeded, but the ranks always run
	// from the tips down to the roots, so every seed has a hot set of the
	// same shape and size.
	popular []int
	clients []*hubClient
}

// hubClient is one closed-loop client's state. It only loads curated
// models and only builds on curated tips, and it retires only its own
// fine-tunes.
type hubClient struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	own    []member
	tuned  int
	deck   []deckKind
	cursor int
}

func newHub(seed int64) (*hub, error) {
	h := &hub{seed: seed, h: newHasher()}
	for l := 0; l < hubLineages; l++ {
		f, err := archgen.Uniform(archgen.UniformOptions{
			TotalBytes: hubModelBytes, Layers: 100, Variant: uint64(l), SharedFraction: 0.5,
		})
		if err != nil {
			return nil, err
		}
		h.archs = append(h.archs, f)
	}
	return h, nil
}

func (h *hub) name() string { return "hub-tcp" }

// setup starts the providers and the client and curates the lineages. The
// lineage weights are generated between the timed calls: each fine-tune
// clones its parent and perturbs a seeded quarter of its layers.
func (h *hub) setup(tr *tracer) (time.Duration, error) {
	t0 := time.Now()
	d, err := openHub(tr)
	if err != nil {
		return 0, err
	}
	start := time.Since(t0)
	h.d, h.curated, h.tips, h.tipQ = d, nil, nil, nil
	rng := rand.New(rand.NewSource(h.seed))
	w := &worker{ctx: context.Background(), repo: d.repo, rec: newRecorder()}
	for l, f := range h.archs {
		ws := model.Materialize(f, uint64(h.seed)<<8^uint64(l))
		m := member{hash: h.h.weights(ws), params: f.TotalParamBytes()}
		q := 0.5
		if err := w.call(opStore, 0, func(ctx context.Context) (err error) {
			m.id, err = d.repo.Store(ctx, f, ws, q)
			return err
		}); err != nil {
			return 0, err
		}
		h.curated = append(h.curated, m)
		for step := 1; step <= hubChain; step++ {
			var anc *core.Ancestor
			if err := w.call(opQuery, 0, func(ctx context.Context) (err error) {
				anc, _, err = d.repo.BestAncestor(ctx, f)
				return err
			}); err != nil {
				return 0, err
			}
			if anc == nil || anc.Meta.Model != m.id {
				return 0, checkf("curating lineage %d: ancestor is not the previous step %d", l, m.id)
			}
			ws = ws.Clone()
			pv := paramVertices(f, anc.Prefix)
			trained := make(map[graph.VertexID]bool)
			for _, i := range rng.Perm(len(pv))[:len(pv)/4] {
				ws.PerturbVertex(pv[i], rng.Uint64())
				trained[pv[i]] = true
			}
			var frozen []graph.VertexID
			for _, v := range anc.Prefix {
				if !trained[v] {
					frozen = append(frozen, v)
				}
			}
			q += 0.05
			m = member{hash: h.h.weights(ws), params: f.TotalParamBytes()}
			if err := w.call(opDerive25, 0, func(ctx context.Context) (err error) {
				m.id, err = d.repo.StoreDerived(ctx, f, ws, q, anc, frozen)
				return err
			}); err != nil {
				return 0, err
			}
			h.curated = append(h.curated, m)
		}
		h.tips = append(h.tips, m.id)
		h.tipQ = append(h.tipQ, q)
	}
	h.popular = nil
	lineages := rng.Perm(hubLineages)
	for step := hubChain; step >= 0; step-- {
		for _, l := range lineages {
			h.popular = append(h.popular, l*(hubChain+1)+step)
		}
	}
	h.clients = nil
	for c := 0; c < hubClients; c++ {
		crng := rand.New(rand.NewSource(h.seed*7919 + int64(c) + 1))
		hc := &hubClient{rng: crng, zipf: rand.NewZipf(crng, 1.1, 1, uint64(len(h.curated)-1))}
		h.clients = append(h.clients, hc)
	}
	return start + w.rec.busy, nil
}

// request runs the client's next deck entry.
func (h *hub) request(w *worker, c *hubClient) error {
	if c.cursor == len(c.deck) {
		c.deck, c.cursor = newDeck(c.rng), 0
	}
	kind := c.deck[c.cursor]
	c.cursor++
	var err error
	switch kind {
	case reqLoad:
		err = loadAndCheck(w, h.h, h.curated[h.popular[c.zipf.Uint64()]])
	case reqSearch:
		err = h.search(w, c.rng.Intn(len(h.archs)))
	case reqFineTune:
		err = h.fineTune(w, c)
	}
	if err == nil {
		w.rec.requests++
	}
	return err
}

// search queries the best ancestor of lineage l's architecture and
// requires the lineage tip.
func (h *hub) search(w *worker, l int) error {
	var anc *core.Ancestor
	if err := w.call(opQuery, 0, func(ctx context.Context) (err error) {
		anc, _, err = w.repo.BestAncestor(ctx, h.archs[l])
		return err
	}); err != nil {
		return err
	}
	if anc == nil || anc.Meta.Model != h.tips[l] {
		return checkf("search of lineage %d did not return its tip %d", l, h.tips[l])
	}
	return nil
}

// fineTune derives from a lineage tip (three in four train 25%, the
// fourth 100%), publishes the result below the tip's quality, and retires
// the client's own oldest fine-tune past the window.
func (h *hub) fineTune(w *worker, c *hubClient) error {
	l := c.rng.Intn(len(h.archs))
	frac := fineTuneFraction(c.tuned)
	c.tuned++
	m, err := derive(w, h.h, c.rng, h.archs[l], frac, h.tipQ[l]-0.1-0.05*c.rng.Float64())
	if err != nil {
		return err
	}
	c.own = append(c.own, m)
	if len(c.own) > hubWindow {
		if err := retire(w, c.own[0]); err != nil {
			return err
		}
		c.own = c.own[1:]
	}
	return nil
}

// fineTuneFraction is the share of the prefix a client's n-th fine-tune
// trains: three in every four train 25%, the fourth 100%.
func fineTuneFraction(n int) float64 {
	if n%4 == 3 {
		return 1
	}
	return 0.25
}

// run drives every client in its own goroutine. A client asks p for the
// window at every deck boundary, so each window holds whole decks only.
func (h *hub) run(p pacer, tr *tracer) ([]*recorder, error) {
	recs := make([][]*recorder, len(h.clients))
	errs := make([]error, len(h.clients))
	var wg sync.WaitGroup
	for i, c := range h.clients {
		recs[i] = newRecorders(p.windows())
		wg.Add(1)
		go func(i int, c *hubClient) {
			defer wg.Done()
			w := &worker{ctx: context.Background(), repo: h.d.repo, tr: tr}
			for {
				if c.cursor == len(c.deck) {
					k, done := p.next()
					if done {
						return
					}
					w.rec = recs[i][k]
				}
				if err := h.request(w, c); err != nil && errors.Is(err, errCheck) {
					errs[i] = err
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	out := newRecorders(p.windows())
	for _, rs := range recs {
		for k, r := range rs {
			out[k].merge(r)
		}
	}
	return out, errors.Join(errs...)
}

func (h *hub) liveMembers() []member {
	out := append([]member(nil), h.curated...)
	for _, c := range h.clients {
		out = append(out, c.own...)
	}
	return out
}

func (h *hub) deploy() *deployment { return h.d }

func (h *hub) workers() int { return hubClients }

func (h *hub) sampleWeights() []model.WeightSet {
	return []model.WeightSet{model.Materialize(h.archs[0], uint64(h.seed)<<8)}
}

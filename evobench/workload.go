package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/tensor"
)

// errCheck marks a failed correctness check: the run reports
// "correct": false and exits non-zero.
var errCheck = errors.New("correctness check failed")

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

// worker is one closed-loop client: it waits for every Repository call
// before it issues the next. call times each call, wraps it in a core span
// when tracing, and books it in the worker's recorder.
type worker struct {
	ctx  context.Context
	repo *core.Repository
	tr   *tracer // nil outside a traced measured phase
	rec  *recorder
}

// call runs fn as one Repository call named op. modBytes is the parameter
// payload a derive writes (0 for other calls); it is kept on the span for
// core.derive.shipped_per_modified. A failed call counts against ok_frac
// and is never retried.
func (w *worker) call(op string, modBytes int64, fn func(ctx context.Context) error) error {
	ctx := w.ctx
	var sp *span
	if w.tr != nil {
		ctx, sp = w.tr.startCore(ctx, op)
		sp.modBytes = modBytes
	}
	h0, m0 := segHits.Load(), segMisses.Load()
	t0 := time.Now()
	err := fn(ctx)
	d := time.Since(t0)
	w.rec.segHits[op] += segHits.Load() - h0
	w.rec.segMisses[op] += segMisses.Load() - m0
	if sp != nil {
		w.tr.finish(sp, err)
	}
	w.rec.attempted++
	if err != nil {
		w.rec.failed++
		return fmt.Errorf("%s: %w", op, err)
	}
	w.rec.lat[op] = append(w.rec.lat[op], float64(d)/1e6)
	w.rec.busy += d
	return nil
}

// The client's segment-cache counters, read around every call to split
// the hit ratio by operation. The split is exact with one worker and
// approximate with several.
var (
	segHits   = metrics.Default.Counter("client.segcache_hit")
	segMisses = metrics.Default.Counter("client.segcache_miss")
)

// hasher computes the keyed hash of a weight set that every Load is
// checked against. The key is random per process, so a match cannot be
// produced by anything but the stored bytes.
type hasher struct{ seed maphash.Seed }

func newHasher() hasher { return hasher{seed: maphash.MakeSeed()} }

func (h hasher) weights(ws model.WeightSet) uint64 {
	var mh maphash.Hash
	mh.SetSeed(h.seed)
	var b [8]byte
	for v, ts := range ws {
		for i, t := range ts {
			binary.LittleEndian.PutUint32(b[:4], uint32(v))
			binary.LittleEndian.PutUint32(b[4:], uint32(i))
			mh.Write(b[:])
			mh.WriteString(t.Name)
			mh.Write(t.Data)
		}
	}
	return mh.Sum64()
}

// member is a stored model the benchmark knows the contents of.
type member struct {
	id     core.ModelID
	hash   uint64
	params int64 // full parameter bytes
}

// paramVertices lists the vertices of f that carry parameters.
func paramVertices(f *model.Flat, vs []graph.VertexID) []graph.VertexID {
	var out []graph.VertexID
	for _, v := range vs {
		if len(f.Leaves[v].Specs) > 0 {
			out = append(out, v)
		}
	}
	return out
}

// fillVertex gives vertex v of ws fresh weights drawn from seed.
func fillVertex(f *model.Flat, ws model.WeightSet, v graph.VertexID, seed uint64) {
	leaf := &f.Leaves[v]
	if len(leaf.Specs) == 0 {
		return
	}
	ts := make([]*tensor.Tensor, len(leaf.Specs))
	for i, spec := range leaf.Specs {
		t := tensor.New(leaf.Name+"/"+spec.Name, spec.DType, spec.Shape...)
		t.FillSeeded(seed ^ uint64(v)<<20 ^ uint64(i)<<40)
		ts[i] = t
	}
	ws[v] = ts
}

// candidate is one prepared derive: the architecture, its weights after
// transfer and training, and what the read-back must find.
type candidate struct {
	f        *model.Flat
	ws       model.WeightSet
	anc      *core.Ancestor
	selfOwn  []bool // vertex -> expected to be owned by the new model
	trained  int    // trained prefix parameter vertices
	prefixPV int    // prefix parameter vertices
	modBytes int64  // parameter bytes of trained or fresh vertices
}

// train perturbs frac (0.25 or 1) of the prefix parameter vertices, picked
// by rng, and gives every vertex outside the prefix fresh weights. It
// records which vertices the new model must own.
func train(rng *rand.Rand, c *candidate, frac float64) {
	n := c.f.Graph.NumVertices()
	c.selfOwn = make([]bool, n)
	for v := range c.selfOwn {
		c.selfOwn[v] = true
	}
	for _, v := range c.anc.Prefix {
		c.selfOwn[v] = false
	}
	for v := 0; v < n; v++ {
		if c.selfOwn[v] {
			fillVertex(c.f, c.ws, graph.VertexID(v), rng.Uint64())
			c.modBytes += c.f.Graph.Vertices[v].ParamBytes
		}
	}
	pv := paramVertices(c.f, c.anc.Prefix)
	c.prefixPV = len(pv)
	k := int(frac * float64(len(pv)))
	for _, i := range rng.Perm(len(pv))[:k] {
		v := pv[i]
		c.ws.PerturbVertex(v, rng.Uint64())
		c.selfOwn[v] = true
		c.modBytes += c.f.Graph.Vertices[v].ParamBytes
	}
	c.trained = k
}

// checkDerived reads the new model's metadata back and requires that it
// inherits exactly the untrained prefix vertices. It books the inherited
// and prefix parameter vertex counts for core.derive.inherited_frac.
func checkDerived(ctx context.Context, repo *core.Repository, rec *recorder, id core.ModelID, c *candidate) error {
	meta, err := repo.GetMeta(ctx, id)
	if err != nil {
		return checkf("read-back of %d: %v", id, err)
	}
	inherited := 0
	for v, e := range meta.OwnerMap.Entries {
		self := e.Owner == id
		if self != c.selfOwn[v] {
			return checkf("model %d vertex %d: owned by self=%t, want %t", id, v, self, c.selfOwn[v])
		}
		if !self && len(c.f.Leaves[v].Specs) > 0 {
			inherited++
		}
	}
	if inherited != c.prefixPV-c.trained {
		return checkf("model %d inherits %d parameter vertices, want %d", id, inherited, c.prefixPV-c.trained)
	}
	rec.inherited += inherited
	rec.prefixParam += c.prefixPV
	return nil
}

// derive runs one transfer-learning step of the NAS cycle: BestAncestor,
// TransferPrefix, training of frac of the prefix, StoreDerived with the
// automatic diff, and the read-back check. It returns the new member.
func derive(w *worker, h hasher, rng *rand.Rand, f *model.Flat, frac, quality float64) (member, error) {
	c := &candidate{f: f, ws: make(model.WeightSet, f.Graph.NumVertices())}
	var found bool
	if err := w.call(opQuery, 0, func(ctx context.Context) (err error) {
		c.anc, found, err = w.repo.BestAncestor(ctx, f)
		return err
	}); err != nil {
		return member{}, err
	}
	if !found {
		return member{}, checkf("no ancestor for a %d-vertex architecture", f.Graph.NumVertices())
	}
	if err := w.call(opTransfer, 0, func(ctx context.Context) error {
		return w.repo.TransferPrefix(ctx, f, c.ws, c.anc)
	}); err != nil {
		return member{}, err
	}
	train(rng, c, frac)
	m := member{hash: h.weights(c.ws), params: f.TotalParamBytes()}
	op := opDerive25
	if frac == 1 {
		op = opDerive100
	}
	if err := w.call(op, c.modBytes, func(ctx context.Context) (err error) {
		m.id, err = w.repo.StoreDerived(ctx, f, c.ws, quality, c.anc, nil)
		return err
	}); err != nil {
		return member{}, err
	}
	return m, checkDerived(w.ctx, w.repo, w.rec, m.id, c)
}

// loadAndCheck loads m and requires its tensors to hash to what was stored.
func loadAndCheck(w *worker, h hasher, m member) error {
	var ws model.WeightSet
	if err := w.call(opLoad, 0, func(ctx context.Context) (err error) {
		_, ws, err = w.repo.Load(ctx, m.id)
		return err
	}); err != nil {
		return err
	}
	if got := h.weights(ws); got != m.hash {
		return checkf("load of %d: tensors hash %016x, stored %016x", m.id, got, m.hash)
	}
	return nil
}

// retire retires m as a timed call.
func retire(w *worker, m member) error {
	return w.call(opRetire, 0, func(ctx context.Context) error {
		_, err := w.repo.Retire(ctx, m.id)
		return err
	})
}

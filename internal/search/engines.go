package search

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/mapping"
	"repro/internal/topology"
)

// Exhaustive enumerates every injective placement and certifies the global
// optimum. Only feasible on small NoCs — the space is m!/(m-n)! — which is
// exactly how the paper uses it ("for small NoC sizes both ES and SA
// reached the same results").
type Exhaustive struct {
	Problem Problem
	// Anchor, when true, pins the first core to the canonical mesh
	// quadrant, exploiting mirror symmetry to shrink the space up to 4x.
	// The returned optimum cost is unaffected as long as the objective is
	// symmetry-invariant, which holds for both CWM and CDCM on a mesh.
	Anchor bool
	// Limit aborts after this many placements (0 = none). If it fires,
	// the result is the best-so-far and Certified stays false.
	Limit int64
	// Ctx, when non-nil, cancels the enumeration; Run returns ctx.Err().
	// Nil is bit-identical to the historical behaviour.
	Ctx context.Context
	// OnProgress, when non-nil, receives a snapshot every few thousand
	// placements (Steps is 0: the space size is not precomputed).
	OnProgress ProgressFunc
}

// Run enumerates the space.
func (e *Exhaustive) Run() (*Result, error) {
	if err := e.Problem.validate(); err != nil {
		return nil, err
	}
	anchor := -1
	if e.Anchor {
		anchor = 0
	}
	res, err := e.Problem.enumerate(e.Ctx, mapping.EnumerateOptions{Limit: e.Limit, AnchorCore: anchor},
		e.OnProgress, 0)
	if err == mapping.ErrLimit {
		return res, nil // truncated: not certified
	}
	if err != nil {
		return nil, err
	}
	res.Certified = true
	return res, nil
}

// enumerate prices every placement opts admits with p.Obj — the
// per-placement visitor Exhaustive and each ShardedExhaustive shard
// share. It returns the partial result alongside mapping.ErrLimit when
// the limit fires; shard labels the progress snapshots.
func (p *Problem) enumerate(ctx context.Context, opts mapping.EnumerateOptions,
	onProgress ProgressFunc, shard int) (*Result, error) {
	res := &Result{BestCost: math.Inf(1)}
	var innerErr error
	err := mapping.Enumerate(p.Mesh, p.NumCores, opts, func(m mapping.Mapping) bool {
		if ctx != nil && res.Evaluations%pollEvery == 0 {
			if innerErr = pollCtx(ctx); innerErr != nil {
				return false
			}
		}
		c, err := p.Obj.Cost(m)
		if err != nil {
			innerErr = err
			return false
		}
		res.Evaluations++
		res.ExactEvals++
		if res.Evaluations == 1 {
			res.InitialCost = c
		}
		if onProgress != nil && res.Evaluations%4096 == 0 {
			pr := res.progress("ES", res.Improvements, res.Evaluations-res.Improvements)
			pr.Restart = shard
			onProgress(pr)
		}
		if c < res.BestCost {
			res.BestCost = c
			res.Best = m.Clone()
			res.Improvements++
		}
		return true
	})
	if innerErr != nil {
		return nil, innerErr
	}
	return res, err
}

// RandomSearch samples independent random mappings — the baseline of the
// paper's reference [4], which reports that guided mapping beats random
// mapping by more than 60% in energy.
type RandomSearch struct {
	Problem Problem
	Seed    int64
	Samples int // 0 defaults to 1000
	// Ctx, when non-nil, cancels the sampling; Run returns ctx.Err().
	Ctx context.Context
	// OnProgress, when non-nil, receives a snapshot every few hundred
	// samples.
	OnProgress ProgressFunc
}

// Run draws and prices Samples random mappings.
func (r *RandomSearch) Run() (*Result, error) {
	if err := r.Problem.validate(); err != nil {
		return nil, err
	}
	samples := r.Samples
	if samples == 0 {
		samples = 1000
	}
	rng := rand.New(rand.NewSource(r.Seed))
	res := &Result{BestCost: math.Inf(1)}
	for i := 0; i < samples; i++ {
		if r.Ctx != nil && i%pollEvery == 0 {
			if err := pollCtx(r.Ctx); err != nil {
				return nil, err
			}
		}
		m, err := mapping.Random(rng, r.Problem.NumCores, r.Problem.Mesh.NumTiles())
		if err != nil {
			return nil, err
		}
		c, err := r.Problem.Obj.Cost(m)
		if err != nil {
			return nil, err
		}
		res.Evaluations++
		res.ExactEvals++
		if i == 0 {
			res.InitialCost = c
		}
		if c < res.BestCost {
			res.BestCost = c
			res.Best = m
			res.Improvements++
		}
		if r.OnProgress != nil && (i+1)%256 == 0 {
			p := res.progress("random", res.Improvements, res.Evaluations-res.Improvements)
			p.Step, p.Steps = i+1, samples
			r.OnProgress(p)
		}
	}
	return res, nil
}

// HillClimber performs steepest-descent over the swap neighbourhood with
// random restarts: from a random mapping, repeatedly apply the best
// improving swap until none exists. Its O(numTiles²) neighbourhood scan
// per move is where the DeltaObjective fast path pays off most: each
// neighbour is priced in O(deg) instead of a full O(|E|) walk.
type HillClimber struct {
	Problem  Problem
	Seed     int64
	Restarts int // 0 defaults to 3
	// Initial, when non-nil, replaces the first restart's random starting
	// mapping — the warm-start seam (mapping.SeedGreedy plugs in here).
	// Later restarts keep random starts for diversity. Steepest descent
	// never accepts a degrading move, so the first restart's local
	// optimum — and therefore the returned Best — can never price worse
	// than the supplied mapping.
	Initial mapping.Mapping
	// Ctx, when non-nil, cancels the climb; Run returns ctx.Err().
	Ctx context.Context
	// OnProgress, when non-nil, receives a snapshot after every accepted
	// steepest-descent move (Step/Steps count restarts).
	OnProgress ProgressFunc
}

// Run executes the restarts.
func (h *HillClimber) Run() (*Result, error) {
	if err := h.Problem.validate(); err != nil {
		return nil, err
	}
	restarts := h.Restarts
	if restarts == 0 {
		restarts = 3
	}
	rng := rand.New(rand.NewSource(h.Seed))
	res := &Result{BestCost: math.Inf(1)}
	var w *walk
	// Telemetry counters across all restarts: each steepest-descent scan
	// accepts at most one neighbour (the applied move) and rejects the
	// rest. Never read by the search itself.
	var accepted, rejected int64
	for r := 0; r < restarts; r++ {
		initial := h.Initial
		if r > 0 {
			initial = nil
		}
		var err error
		if w, err = h.Problem.startWalk(rng, initial, cutoffTier, res); err != nil {
			return nil, err
		}
		if r == 0 {
			res.InitialCost = w.cost
		}
		for {
			mv, err := w.bestSwap(h.Ctx, 0, nil)
			if err != nil {
				return nil, err
			}
			if mv.ta < 0 {
				rejected += mv.scanned
				break // local optimum
			}
			accepted++
			rejected += mv.scanned - 1
			if err := w.apply(mv.ta, mv.tb, mv.c); err != nil {
				return nil, err
			}
			if h.OnProgress != nil {
				p := res.progress("hill", accepted, rejected)
				p.Step, p.Steps = r+1, restarts
				if w.cost < p.BestCost {
					p.BestCost = w.cost
				}
				h.OnProgress(p)
			}
		}
		w.record()
	}
	if w == nil {
		return res, nil // no restarts
	}
	if err := w.finish(); err != nil {
		return nil, err
	}
	return res, nil
}

// Tabu is a short-term-memory tabu search over the swap neighbourhood
// (extension): the best non-tabu neighbour is taken even when degrading,
// and reversing a recent swap is forbidden for Tenure iterations unless it
// beats the incumbent (aspiration).
type Tabu struct {
	Problem    Problem
	Seed       int64
	Iterations int // 0 defaults to 200
	Tenure     int // 0 defaults to NumTiles/2+1
	// Initial, when non-nil, replaces the random starting mapping — the
	// warm-start seam, as on HillClimber.
	Initial mapping.Mapping
	// Ctx, when non-nil, cancels the search; Run returns ctx.Err().
	Ctx context.Context
	// OnProgress, when non-nil, receives a snapshot after every iteration.
	OnProgress ProgressFunc
}

// Run executes the tabu search.
func (t *Tabu) Run() (*Result, error) {
	if err := t.Problem.validate(); err != nil {
		return nil, err
	}
	iters := t.Iterations
	if iters == 0 {
		iters = 200
	}
	numTiles := t.Problem.Mesh.NumTiles()
	tenure := t.Tenure
	if tenure == 0 {
		tenure = numTiles/2 + 1
	}
	rng := rand.New(rand.NewSource(t.Seed))
	res := &Result{}
	w, err := t.Problem.startWalk(rng, t.Initial, cutoffTier, res)
	if err != nil {
		return nil, err
	}
	res.InitialCost = w.cost
	res.Best = w.cur.Clone()
	res.BestCost = w.cost

	// All neighbour comparisons run in the delta domain: the delta path's
	// SwapDelta and the full path's c − cost are bit-identical for an
	// exact DeltaObjective (same operands), whereas comparing
	// reconstructed absolute costs (cost + d) could round a tie apart and
	// make the two paths pick different moves. The aspiration threshold is
	// expressed the same way, against a per-iteration constant.
	tabuUntil := make(map[[2]topology.TileID]int, numTiles)
	var it int
	var aspire float64
	admit := func(ta, tb topology.TileID, d float64) bool {
		return !(tabuUntil[[2]topology.TileID{ta, tb}] > it && d >= aspire)
	}
	// Telemetry counters: one applied (accepted) move per iteration, the
	// rest of the scanned neighbourhood rejected. Never read by the
	// search itself.
	var accepted, rejected int64
	for it = 0; it < iters; it++ {
		aspire = res.BestCost - w.cost
		mv, err := w.bestSwap(t.Ctx, math.Inf(1), admit)
		if err != nil {
			return nil, err
		}
		if mv.ta < 0 {
			rejected += mv.scanned
			break // every move tabu: rare on real instances
		}
		accepted++
		rejected += mv.scanned - 1
		if err := w.apply(mv.ta, mv.tb, mv.c); err != nil {
			return nil, err
		}
		tabuUntil[[2]topology.TileID{mv.ta, mv.tb}] = it + tenure
		w.record()
		if t.OnProgress != nil {
			p := res.progress("tabu", accepted, rejected)
			p.Step, p.Steps = it+1, iters
			t.OnProgress(p)
		}
	}
	if err := w.finish(); err != nil {
		return nil, err
	}
	return res, nil
}

package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/topology"
)

// This file is the one place a move engine's pricing tier is chosen.
// Annealer, HillClimber and Tabu price through a walk and ParetoSA
// through a vectorWalk; both are bound once per walk start and own the
// working mapping, its occupancy view, the tracked cost and the
// Evaluations = ExactEvals + BoundSkips + SurrogateEvals bookkeeping, so
// the engines keep only their own acceptance rules.

// tier names the optional cheaper tier an engine can exploit: the
// strict-improvement scans price through the tier-A cutoff, the
// Metropolis walks steer by the tier-B surrogate.
type tier int

const (
	cutoffTier tier = iota
	surrogateTier
)

// walk is the state of one scalar walk. Exactly one pricing path is live:
// the exact objective's swap delta when it has one (dobj), else the
// tier-B surrogate when the engine steers by it (surr), else a full
// pricing of the swapped mapping — through the tier-A cutoff (cut) when
// the engine scans for strict improvements, a plain Cost otherwise. A
// delta-capable exact objective is already cheaper than either tier, so
// neither ever joins it.
//
// The invariant: cost is always an exactly recomputed cost of cur —
// bindObjective's initial pricing, or an applied move's full, Commit or
// exact-reprice pricing — never an accumulation of deltas, which would
// let rounding drift the walk off the full-recompute path.
type walk struct {
	res  *Result   // counters and incumbent best
	obj  Objective // the exact tier
	cur  mapping.Mapping
	occ  []model.CoreID
	cost float64

	dobj  DeltaObjective
	surr  DeltaObjective
	scost float64 // the surrogate's own baseline, tracked like cost
	cut   CutoffObjective

	last float64 // value of the last probed candidate, steering domain
}

// walkAudit is a test-only hook invoked after every applied move. The
// invariant test re-prices w.cur and asserts bitwise equality with
// w.cost. Nil in production: the only hot-path cost is one nil check per
// applied move (not per scanned candidate).
var walkAudit func(w *walk)

// start returns a walk's starting mapping: a validated copy of initial
// when non-nil (the warm-start seam mapping.SeedGreedy plugs into), a
// uniform random placement drawn from rng otherwise.
func (p *Problem) start(rng *rand.Rand, initial mapping.Mapping) (mapping.Mapping, error) {
	numTiles := p.Mesh.NumTiles()
	if initial == nil {
		return mapping.Random(rng, p.NumCores, numTiles)
	}
	if len(initial) != p.NumCores {
		return nil, fmt.Errorf("search: initial mapping has %d cores, want %d", len(initial), p.NumCores)
	}
	if err := initial.Validate(numTiles); err != nil {
		return nil, err
	}
	return initial.Clone(), nil
}

// startWalk draws (or copies) a starting mapping and binds a walk to it.
func (p *Problem) startWalk(rng *rand.Rand, initial mapping.Mapping, use tier, res *Result) (*walk, error) {
	cur, err := p.start(rng, initial)
	if err != nil {
		return nil, err
	}
	return bindObjective(p.Obj, cur, p.Mesh.NumTiles(), use, res)
}

// bindObjective primes obj for one walk over cur and counts the initial
// exact pricing into res. A DeltaObjective binds cur via Reset (which also
// validates injectivity), anything else prices it with a plain Cost. A
// TieredObjective is unwrapped to its exact tier first, so tiered runs
// bind and price on exactly the bare evaluator's code path; its cutoff or
// surrogate then binds too, as use allows.
func bindObjective(obj Objective, cur mapping.Mapping, numTiles int, use tier, res *Result) (*walk, error) {
	tiered, _ := obj.(*TieredObjective)
	if tiered != nil {
		obj = tiered.Exact
	}
	w := &walk{res: res, obj: obj, cur: cur, occ: cur.Occupants(numTiles)}
	var err error
	if dobj, ok := obj.(DeltaObjective); ok {
		w.dobj = dobj
		w.cost, err = dobj.Reset(cur)
	} else {
		w.cost, err = obj.Cost(cur)
	}
	if err != nil {
		return nil, err
	}
	res.Evaluations++
	res.ExactEvals++
	if tiered == nil || w.dobj != nil {
		return w, nil
	}
	switch {
	case use == surrogateTier && tiered.Surrogate != nil:
		w.surr = tiered.Surrogate
		if w.scost, err = w.surr.Reset(cur); err != nil {
			return nil, err
		}
	case use == cutoffTier:
		w.cut = tiered.Cutoff
	}
	return w, nil
}

// price returns the would-be value c of swapping the occupants of ta and
// tb and its delta d against the current value, leaving cur/occ
// untouched, and counts the evaluation against the tier that priced it.
// Both live in the steering domain: the surrogate's own scale on a
// surrogate walk, exact otherwise. The full path applies the swap, prices
// the swapped mapping in full, and undoes it; with a cutoff, a candidate
// that provably has d ≥ maxD may stop early; it then reports cut = true,
// and c and d mean nothing.
func (w *walk) price(ta, tb topology.TileID, maxD float64) (c, d float64, cut bool, err error) {
	how := NotCut
	switch {
	case w.dobj != nil:
		d, err = w.dobj.SwapDelta(w.occ, ta, tb)
		c = w.cost + d
	case w.surr != nil:
		d, err = w.surr.SwapDelta(w.occ, ta, tb)
		c = w.scost + d
	default:
		mapping.SwapTiles(w.cur, w.occ, ta, tb)
		if w.cut != nil {
			c, how, err = w.cut.CostCutoff(w.cur, w.cost, maxD)
		} else {
			c, err = w.obj.Cost(w.cur)
		}
		mapping.SwapTiles(w.cur, w.occ, ta, tb) // undo
		d = c - w.cost
	}
	if err != nil {
		return 0, 0, false, err
	}
	w.res.Evaluations++
	switch {
	case w.surr != nil:
		w.res.SurrogateEvals++
	case how == CutAtStart:
		w.res.BoundSkips++
	default:
		w.res.ExactEvals++
	}
	return c, d, how != NotCut, nil
}

// apply makes the swap of ta and tb permanent; c is its exact cost on the
// full path. On the delta path the tracked cost is Commit's exact
// recompute of the updated baseline, not an accumulation of deltas — see
// the DeltaObjective contract. On the surrogate path the applied move is
// immediately re-priced exactly: the walk may be steered by the
// surrogate, but the tracked cost (and so Best/BestCost) only ever holds
// exact values.
func (w *walk) apply(ta, tb topology.TileID, c float64) error {
	mapping.SwapTiles(w.cur, w.occ, ta, tb)
	switch {
	case w.dobj != nil:
		c = w.dobj.Commit(ta, tb)
	case w.surr != nil:
		w.scost = w.surr.Commit(ta, tb)
		var err error
		if c, err = w.obj.Cost(w.cur); err != nil {
			return err
		}
		w.res.Evaluations++
		w.res.ExactEvals++
	}
	w.cost = c
	if walkAudit != nil {
		walkAudit(w)
	}
	return nil
}

// record makes the current mapping the incumbent best if it strictly
// improves on it.
func (w *walk) record() bool {
	if w.cost < w.res.BestCost {
		w.res.BestCost = w.cost
		if w.res.Best == nil {
			w.res.Best = w.cur.Clone()
		} else {
			copy(w.res.Best, w.cur)
		}
		w.res.Improvements++
		return true
	}
	return false
}

// finish re-prices res.Best with one full evaluation after a delta or
// surrogate walk — the final guard against objectives whose deltas are
// only approximately consistent with Cost. Deliberately not counted in
// res.Evaluations: it is a guard, not search work, and keeping the count
// identical to the full-recompute path makes the paths directly
// comparable in tests.
func (w *walk) finish() error {
	if w.dobj == nil && w.surr == nil {
		return nil
	}
	c, err := w.obj.Cost(w.res.Best)
	if err != nil {
		return err
	}
	w.res.BestCost = c
	return nil
}

// swapMove is the outcome of one neighbourhood scan.
type swapMove struct {
	ta, tb  topology.TileID // -1 when no candidate qualified
	c       float64         // exact cost after the swap
	scanned int64           // priced candidates, bound-skipped ones included
}

// bestSwap scans the whole swap neighbourhood of the current mapping —
// the scan HillClimber and Tabu share — for the candidate with the lowest
// delta strictly below bestD. admit, when non-nil, filters candidates
// after pricing (tabu's tenure and aspiration rule). The scan only
// reads walk state; the caller applies the returned move.
func (w *walk) bestSwap(ctx context.Context, bestD float64, admit func(ta, tb topology.TileID, d float64) bool) (swapMove, error) {
	best := swapMove{ta: -1, tb: -1}
	numTiles := len(w.occ)
	for a := 0; a < numTiles; a++ {
		for b := a + 1; b < numTiles; b++ {
			ta, tb := topology.TileID(a), topology.TileID(b)
			if w.occ[ta] == mapping.Unassigned && w.occ[tb] == mapping.Unassigned {
				continue
			}
			if ctx != nil && w.res.Evaluations%pollEvery == 0 {
				if err := pollCtx(ctx); err != nil {
					return best, err
				}
			}
			best.scanned++
			// Cut rule: a cut candidate is proved to have d ≥ bestD, so
			// the strict d < bestD selection below could never fire — nor
			// could the candidate change any admit bookkeeping, which only
			// reads. It is exactly one the exact scan would have rejected,
			// which is what keeps the cutoff trajectory bit-identical. With
			// bestD = +Inf no candidate is ever cut.
			c, d, cut, err := w.price(ta, tb, bestD)
			if err != nil {
				return best, err
			}
			if cut {
				continue
			}
			if admit != nil && !admit(ta, tb, d) {
				continue
			}
			if d < bestD {
				bestD = d
				best.ta, best.tb, best.c = ta, tb, c
			}
		}
	}
	return best, nil
}

// probe implements mover.
func (w *walk) probe(ta, tb topology.TileID) (float64, error) {
	c, d, _, err := w.price(ta, tb, math.Inf(1))
	w.last = c
	return d, err
}

// take implements mover.
func (w *walk) take(ta, tb topology.TileID) (bool, error) {
	if err := w.apply(ta, tb, w.last); err != nil {
		return false, err
	}
	return w.record(), nil
}

// reheat implements mover: the walk jumps back to the incumbent best and
// rebinds every live tier to it.
func (w *walk) reheat() error {
	copy(w.cur, w.res.Best)
	for i := range w.occ {
		w.occ[i] = mapping.Unassigned
	}
	for c, tl := range w.cur {
		w.occ[tl] = model.CoreID(c)
	}
	w.cost = w.res.BestCost
	var err error
	switch {
	case w.dobj != nil:
		// The full recompute also flushes any floating-point drift the
		// accumulated deltas picked up since the last Reset.
		if w.cost, err = w.dobj.Reset(w.cur); err != nil {
			return err
		}
		w.res.BestCost = w.cost
	case w.surr != nil:
		// cost stays the incumbent's exact BestCost.
		w.scost, err = w.surr.Reset(w.cur)
	}
	return err
}

// scale implements mover: an SA walk's temperature scale is its exact
// cost, whatever tier steers it.
func (w *walk) scale() float64 { return w.cost }

// vectorWalk is one ParetoSA walk: it scalarises the component vector
// with the walk's weights, normalised by the starting point, and offers
// every exact-priced candidate to the walk's archive. Under the tier-B
// surrogate the Metropolis walk prices candidates on the surrogate's
// vector view and only accepted moves pay an exact component pricing —
// which is also the only pricing ever offered to the archive, so every
// front point is exact. The front engine has no incremental path
// (components must be exact evaluator output, never accumulated deltas).
type vectorWalk struct {
	res     *Result // counters; BestCost is the best walk point's collapse
	archive *Archive
	obj     VectorObjective
	sobj    VectorObjective // the surrogate's vector view, or nil
	cur     mapping.Mapping
	occ     []model.CoreID

	weights, norm, collapse []float64
	// comps always holds exact components; scomps aliases comps on an
	// exact walk and is the surrogate's buffer otherwise.
	comps, scomps []float64
	// cost and bestScalar live in whichever domain prices the Metropolis
	// candidates; last is the last probed candidate's scalar.
	cost, last, bestScalar float64
}

// bindVector prices the walk's starting point, offers it to the archive
// and counts the pricing into res.
func bindVector(obj VectorObjective, cur mapping.Mapping, numTiles int, weights []float64,
	res *Result, archive *Archive) (*vectorWalk, error) {
	k := len(weights)
	w := &vectorWalk{res: res, archive: archive, obj: obj, cur: cur, occ: cur.Occupants(numTiles),
		weights: weights, collapse: obj.CollapseWeights(), comps: make([]float64, k)}
	if t, ok := obj.(*TieredObjective); ok {
		w.sobj, _ = t.Surrogate.(VectorObjective)
	}
	if err := obj.ComponentsInto(cur, w.comps); err != nil {
		return nil, err
	}
	res.Evaluations++
	res.ExactEvals++
	res.InitialCost = Collapse(w.collapse, w.comps)
	res.BestCost = res.InitialCost

	// Normalise by the starting point so the axes trade off on comparable
	// scales whatever their units; a zero start component falls back to
	// the raw scale. The surrogate approximates the exact axes, so the
	// starting-point scales transfer to it.
	w.norm = make([]float64, k)
	for ax := range w.norm {
		w.norm[ax] = math.Abs(w.comps[ax])
		if w.norm[ax] == 0 {
			w.norm[ax] = 1
		}
	}
	w.scomps = w.comps
	if w.sobj != nil {
		w.scomps = make([]float64, k)
		if err := w.sobj.ComponentsInto(cur, w.scomps); err != nil {
			return nil, err
		}
	}
	w.cost = w.scalar(w.scomps)
	w.bestScalar = w.cost
	archive.Offer(cur, w.comps, res.InitialCost)
	return w, nil
}

func (w *vectorWalk) scalar(c []float64) float64 {
	var s float64
	for ax, wt := range w.weights {
		s += wt * c[ax] / w.norm[ax]
	}
	return s
}

// probe implements mover: price the swapped mapping on every axis of the
// steering tier, offering exact candidates to the archive.
func (w *vectorWalk) probe(ta, tb topology.TileID) (float64, error) {
	mapping.SwapTiles(w.cur, w.occ, ta, tb)
	var err error
	if w.sobj != nil {
		err = w.sobj.ComponentsInto(w.cur, w.scomps)
	} else if err = w.obj.ComponentsInto(w.cur, w.comps); err == nil {
		w.archive.Offer(w.cur, w.comps, Collapse(w.collapse, w.comps))
	}
	mapping.SwapTiles(w.cur, w.occ, ta, tb) // undo
	if err != nil {
		return 0, err
	}
	w.res.Evaluations++
	if w.sobj != nil {
		w.res.SurrogateEvals++
	} else {
		w.res.ExactEvals++
	}
	w.last = w.scalar(w.scomps)
	return w.last - w.cost, nil
}

// take implements mover. A surrogate walk exact-reprices the adopted
// mapping: a surrogate mis-ranking can pollute the walk path but never
// the reported front.
func (w *vectorWalk) take(ta, tb topology.TileID) (bool, error) {
	mapping.SwapTiles(w.cur, w.occ, ta, tb)
	w.cost = w.last
	if w.sobj != nil {
		if err := w.obj.ComponentsInto(w.cur, w.comps); err != nil {
			return false, err
		}
		w.res.Evaluations++
		w.res.ExactEvals++
		w.archive.Offer(w.cur, w.comps, Collapse(w.collapse, w.comps))
	}
	if w.cost < w.bestScalar {
		w.bestScalar = w.cost
		w.res.BestCost = Collapse(w.collapse, w.comps)
		return true, nil
	}
	return false, nil
}

// reheat implements mover. ParetoSA anneals with zero reheats — escaping
// a basin is the job of the other walks' scalarisations — so the
// schedule never calls it.
func (w *vectorWalk) reheat() error { return errors.New("search: pareto walks do not reheat") }

// scale implements mover: the walk's tracked scalar.
func (w *vectorWalk) scale() float64 { return w.cost }

package search

import (
	"math"

	"repro/internal/mapping"
)

// VectorObjective is the component-aware extension of Objective: instead
// of one collapsed scalar it prices a mapping on K named axes — energy
// and latency in this repository — so a front engine can treat them as
// competing objectives the way the 3-D mapping literature does (Jha et
// al., energy- and latency-aware mapping) rather than folding them into
// one number up front.
//
// The scalar seam stays authoritative: Cost(mp) must equal the weighted
// collapse of the component vector, CollapseWeights()·Components(mp),
// bit for bit. Every scalar engine therefore keeps running unchanged on
// a VectorObjective, and the collapse identity is pinned by tests (the
// same style as the delta-equivalence pins).
//
// Hot-path contract: like Objective.Cost, ComponentsInto is called once
// per proposed move with a structurally valid, injective mapping and may
// skip per-call validation. Implementations fill the caller's dst buffer
// so the front engines evaluate candidates without allocating.
type VectorObjective interface {
	Objective
	// Axes names the components, in the order ComponentsInto fills them.
	// The slice is fixed for the evaluator's lifetime; callers must not
	// mutate it.
	Axes() []string
	// ComponentsInto prices mp on every axis into dst, which must hold at
	// least len(Axes()) entries. Lower is better on every axis.
	ComponentsInto(mp mapping.Mapping, dst []float64) error
	// CollapseWeights returns the weight vector w such that
	// Cost(mp) == Σ w[k]·components[k] bitwise for every valid mapping.
	// The slice is fixed for the evaluator's lifetime; callers must not
	// mutate it.
	CollapseWeights() []float64
}

// Dominates reports Pareto dominance for minimisation: a dominates b
// when a is no worse on every axis and strictly better on at least one.
// Equal vectors dominate in neither direction.
func Dominates(a, b []float64) bool {
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// Collapse folds a component vector with the given weights — the scalar
// the legacy Objective seam reports. The accumulation order (ascending
// axis index) is part of the bit-identity contract between Cost and the
// vector view.
func Collapse(weights, components []float64) float64 {
	var s float64
	for i, w := range weights {
		s += w * components[i]
	}
	return s
}

// FrontPoint is one non-dominated mapping of a Pareto front.
type FrontPoint struct {
	// Mapping is the placement.
	Mapping mapping.Mapping
	// Components prices the mapping per axis (same order as the front's
	// Axes), exactly as the evaluator returned them — no accumulated
	// deltas, so re-evaluating reproduces them bit for bit.
	Components []float64
	// Cost is the scalar collapse CollapseWeights·Components, i.e. what
	// Objective.Cost reports for this mapping.
	Cost float64
}

// less orders front points deterministically: lexicographic on the
// component vector, then lexicographic on the mapping — the tie-break
// mirroring the lowest-restart-index idiom of the scalar engines (the
// archive keeps the lexicographically smaller of two exactly-equal
// fronts regardless of discovery order).
func (p *FrontPoint) less(q *FrontPoint) bool {
	for i := range p.Components {
		if p.Components[i] != q.Components[i] {
			return p.Components[i] < q.Components[i]
		}
	}
	return p.lessMapping(q)
}

func (p *FrontPoint) lessMapping(q *FrontPoint) bool {
	for i := range p.Mapping {
		if p.Mapping[i] != q.Mapping[i] {
			return p.Mapping[i] < q.Mapping[i]
		}
	}
	return false
}

// equalComponents reports exact per-axis equality.
func (p *FrontPoint) equalComponents(q *FrontPoint) bool {
	for i := range p.Components {
		if p.Components[i] != q.Components[i] {
			return false
		}
	}
	return true
}

// Archive maintains a mutually non-dominated set of mappings in
// deterministic order. It is the accumulator of the front engines: every
// evaluated candidate is offered, dominated candidates are rejected,
// and an inserted candidate evicts the points it dominates.
//
// Determinism: the archive is kept sorted by FrontPoint.less, and two
// candidates with exactly equal component vectors resolve to the
// lexicographically smaller mapping whatever the offer order — so two
// walks discovering the same front in different orders produce identical
// archives, which is what makes the merged front independent of the
// worker count. When a capacity is set, overflow evicts the point with
// the smallest crowding distance (axis extremes are never evicted), with
// sort position breaking crowding ties; the rule depends only on the
// archive's contents, never on arrival order.
//
// An Archive is not safe for concurrent use; the front engines keep one
// per walk and merge in walk order.
type Archive struct {
	cap int
	pts []FrontPoint
	// inserted counts successful Offer calls — the front analogue of
	// Result.Improvements.
	inserted int64
}

// NewArchive returns an archive bounded to capacity points (0 = unbounded).
func NewArchive(capacity int) *Archive {
	return &Archive{cap: capacity}
}

// Len returns the current front size.
func (a *Archive) Len() int { return len(a.pts) }

// Inserted counts how many offers were admitted (including points later
// evicted by dominating insertions or capacity pruning).
func (a *Archive) Inserted() int64 { return a.inserted }

// Points returns the archived front in deterministic order. The slice
// aliases the archive's storage; callers must not mutate it.
func (a *Archive) Points() []FrontPoint { return a.pts }

// Offer proposes a candidate. It returns true when the candidate entered
// the archive, in which case mp and components were copied (the caller
// may keep mutating its buffers); a rejected offer copies nothing, so
// offering every evaluated candidate stays cheap on the hot loop.
func (a *Archive) Offer(mp mapping.Mapping, components []float64, cost float64) bool {
	cand := FrontPoint{Mapping: mp, Components: components, Cost: cost}
	// Reject if dominated; evict the points the candidate dominates.
	// One pass suffices: survivors are mutually non-dominated, so a
	// candidate dominating one point cannot be dominated by another.
	w := 0
	equalAt := -1
	for i := range a.pts {
		p := &a.pts[i]
		if Dominates(p.Components, cand.Components) {
			return false
		}
		if Dominates(cand.Components, p.Components) {
			continue // evict
		}
		if equalAt < 0 && p.equalComponents(&cand) {
			equalAt = w
		}
		a.pts[w] = a.pts[i]
		w++
	}
	a.pts = a.pts[:w]
	if equalAt >= 0 {
		// Exactly equal on every axis: keep the lexicographically smaller
		// mapping, independent of discovery order.
		if cand.lessMapping(&a.pts[equalAt]) {
			a.pts[equalAt].Mapping = mp.Clone()
			a.pts[equalAt].Cost = cost
			a.inserted++
			return true
		}
		return false
	}
	cand.Mapping = mp.Clone()
	cand.Components = append([]float64(nil), components...)
	a.insertSorted(cand)
	a.inserted++
	if a.cap > 0 && len(a.pts) > a.cap {
		a.evictCrowded()
	}
	return true
}

// OfferPoint is Offer for an already-materialised point (front merging);
// the point's slices are adopted, not copied.
func (a *Archive) OfferPoint(p FrontPoint) bool {
	return a.Offer(p.Mapping, p.Components, p.Cost)
}

// insertSorted places cand at its deterministic position.
func (a *Archive) insertSorted(cand FrontPoint) {
	lo, hi := 0, len(a.pts)
	for lo < hi {
		mid := (lo + hi) / 2
		if a.pts[mid].less(&cand) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	a.pts = append(a.pts, FrontPoint{})
	copy(a.pts[lo+1:], a.pts[lo:])
	a.pts[lo] = cand
}

// evictCrowded removes the point with the smallest crowding distance —
// the NSGA-II spread heuristic: per axis, points are ranked and each
// interior point accumulates the normalised gap between its rank
// neighbours; axis extremes get +Inf and are therefore never evicted.
// Ties evict the point latest in the deterministic sort order, so the
// pruned archive depends only on its contents.
func (a *Archive) evictCrowded() {
	n := len(a.pts)
	k := len(a.pts[0].Components)
	crowd := make([]float64, n)
	rank := make([]int, n)
	for ax := 0; ax < k; ax++ {
		for i := range rank {
			rank[i] = i
		}
		// Insertion sort by the axis value, stable on the deterministic
		// archive order (n is at most cap+1, and evictions are rare next
		// to evaluations, so simplicity beats an O(n log n) sort here).
		for i := 1; i < n; i++ {
			for j := i; j > 0 && a.pts[rank[j]].Components[ax] < a.pts[rank[j-1]].Components[ax]; j-- {
				rank[j], rank[j-1] = rank[j-1], rank[j]
			}
		}
		lo := a.pts[rank[0]].Components[ax]
		hi := a.pts[rank[n-1]].Components[ax]
		span := hi - lo
		crowd[rank[0]] = math.Inf(1)
		crowd[rank[n-1]] = math.Inf(1)
		if span <= 0 {
			continue // axis is flat: contributes nothing to interior spread
		}
		for r := 1; r < n-1; r++ {
			i := rank[r]
			crowd[i] += (a.pts[rank[r+1]].Components[ax] - a.pts[rank[r-1]].Components[ax]) / span
		}
	}
	evict := 0
	for i := 1; i < n; i++ {
		// Strictly smaller crowding wins; on ties the later point in sort
		// order is evicted, so scanning forward with >= picks it.
		if crowd[i] <= crowd[evict] {
			evict = i
		}
	}
	a.pts = append(a.pts[:evict], a.pts[evict+1:]...)
}

// FrontResult is the outcome of one front-engine run: the scalar
// Result's multi-objective sibling.
type FrontResult struct {
	// Axes names the component axes (from the objective).
	Axes []string
	// Weights is the objective's collapse vector: Cost of every point is
	// Weights·Components.
	Weights []float64
	// Points is the mutually non-dominated front in deterministic order
	// (lexicographic components, then mapping).
	Points []FrontPoint
	// InitialCost is the scalar collapse of walk 0's starting mapping.
	InitialCost float64
	// Evaluations counts component evaluations across all walks.
	Evaluations int64
	// ExactEvals / SurrogateEvals split Evaluations by the tier that
	// priced each candidate (the front engines never use the tier-A
	// cutoff, so Evaluations == ExactEvals + SurrogateEvals here). Runs
	// without a surrogate report ExactEvals == Evaluations.
	ExactEvals, SurrogateEvals int64
	// Improvements counts archive insertions across all walks (points
	// that advanced a walk's front, including ones later evicted by
	// better candidates).
	Improvements int64
}

// Best returns the front point with the lowest scalar collapse — the
// mapping the legacy scalar seam would report — with the deterministic
// front order breaking exact cost ties. It returns false on an empty
// front.
func (f *FrontResult) Best() (FrontPoint, bool) {
	if len(f.Points) == 0 {
		return FrontPoint{}, false
	}
	best := 0
	for i := 1; i < len(f.Points); i++ {
		if f.Points[i].Cost < f.Points[best].Cost {
			best = i
		}
	}
	return f.Points[best], true
}

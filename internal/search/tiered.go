package search

import (
	"errors"

	"repro/internal/mapping"
)

// errNoVector reports a vector call on a tiered objective whose exact
// tier is scalar-only.
var errNoVector = errors.New("search: tiered objective's exact tier is not a VectorObjective")

// This file is the two-tier evaluation seam: a TieredObjective layers
// cheaper evaluation tiers over an exact pricer so the engines can avoid
// paying the exact cost (a full wormhole simulation for CDCM) on every
// candidate.
//
//   - Tier A, CutoffObjective, is the exact pricing itself run against a
//     threshold: it stops as soon as it proves, on the computed float64s,
//     that a candidate cannot beat the incumbent threshold. The
//     strict-improvement engines (HillClimber, Tabu) price their scans
//     through it — the cut candidates are exactly the ones the exact scan
//     would have rejected, so Best, BestCost and the accept/reject
//     trajectory stay bit-identical to the unfiltered run.
//   - Tier B, Surrogate, is an opt-in calibrated approximation (a
//     DeltaObjective fitted against exact evaluations at build time).
//     The Metropolis engines (Annealer, ParetoSA) walk on surrogate
//     deltas and pay the exact price only for accepted moves, so the
//     incumbent Best and every archived front point remain exact-priced;
//     the walk itself is approximate, so results are deterministic but
//     not bit-identical to a surrogate-free run.
//
// The move engines never look at the tiers themselves: bindObjective and
// bindVector (walk.go) choose, once per walk, which tier a walk uses.
// Engines that use neither tier (exhaustive, random) see only Exact
// through the plain Objective interface, so wrapping is behaviourally
// free for them.

// Cut reports whether, and how early, a cutoff pricing stopped.
type Cut int8

const (
	// NotCut: the candidate was priced in full; its cost is exact.
	NotCut Cut = iota
	// CutAtStart: the candidate was proved a loser before any exact
	// work began. The engines count it as a BoundSkip.
	CutAtStart
	// CutInRun: the candidate was proved a loser part-way through its
	// exact pricing. The engines count it as an ExactEval.
	CutInRun
)

// CutoffObjective prices an exact objective against a threshold, so that
// a candidate that provably cannot beat it stops early.
//
// CostCutoff returns the exact cost c of mp, exactly as Cost would,
// unless it proves that c − base ≥ maxDelta; then it may stop early and
// report how far it got. The proof must hold on the computed float64s,
// not merely in exact arithmetic: an implementation decides it with a
// lower bound on c priced through the same monotone float pipeline as c
// itself. Like Cost, it assumes mp is structurally valid; an
// implementation is not safe for concurrent use, so parallel engines
// bind one per worker lane.
type CutoffObjective interface {
	CostCutoff(mp mapping.Mapping, base, maxDelta float64) (float64, Cut, error)
}

// TieredObjective wraps an exact Objective with optional cheaper tiers.
// Exact is authoritative: Cost forwards to it, so any engine (or caller)
// that ignores the tiers prices exactly as before. Cutoff and Surrogate
// are both optional and independent.
type TieredObjective struct {
	// Exact is the authoritative pricer (the CDCM evaluator in core).
	Exact Objective
	// Cutoff, when non-nil, is tier A: the strict-improvement engines
	// price their scans through it instead of Exact. Its uncut costs
	// must equal Exact.Cost bit for bit; it is usually the same
	// evaluator lane as Exact.
	Cutoff CutoffObjective
	// Surrogate, when non-nil, is the tier-B calibrated approximation the
	// Metropolis engines walk on. It needs no ordering guarantee — every
	// decision it influences is re-checked with an exact pricing before
	// it can reach a reported result.
	Surrogate DeltaObjective
}

// Cost implements Objective by forwarding to the exact tier.
func (t *TieredObjective) Cost(mp mapping.Mapping) (float64, error) { return t.Exact.Cost(mp) }

// exactVector returns the exact tier's vector view, or nil.
func (t *TieredObjective) exactVector() VectorObjective {
	v, ok := t.Exact.(VectorObjective)
	if !ok {
		return nil
	}
	return v
}

// Axes implements VectorObjective by forwarding to the exact tier; a
// tiered objective over a scalar-only exact pricer reports no axes (and
// vectorObjective rejects it, exactly as it rejects the bare pricer).
func (t *TieredObjective) Axes() []string {
	if v := t.exactVector(); v != nil {
		return v.Axes()
	}
	return nil
}

// CollapseWeights implements VectorObjective by forwarding to the exact
// tier.
func (t *TieredObjective) CollapseWeights() []float64 {
	if v := t.exactVector(); v != nil {
		return v.CollapseWeights()
	}
	return nil
}

// ComponentsInto implements VectorObjective by forwarding to the exact
// tier.
func (t *TieredObjective) ComponentsInto(mp mapping.Mapping, dst []float64) error {
	if v := t.exactVector(); v != nil {
		return v.ComponentsInto(mp, dst)
	}
	return errNoVector
}

var _ VectorObjective = (*TieredObjective)(nil)

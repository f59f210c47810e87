// Package search provides the mapping-space exploration engines of the
// FRW framework: simulated annealing (the paper's workhorse), exhaustive
// search (used on small NoCs to certify optimality), plus hill climbing,
// random sampling and tabu search as extensions. All engines are
// deterministic under a fixed seed and generic over an Objective, so the
// same machinery explores both the CWM and the CDCM cost functions.
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

// Objective prices a mapping; lower is better. Implementations are the
// CWM evaluator (EDyNoC of equation (3)) and the CDCM evaluator (ENoC of
// equation (10)) in package core.
//
// Hot-path contract: the engines call Cost once per proposed move, always
// with a structurally valid, injective mapping — starting points are
// validated once up front (mapping.Random output, or the explicit
// Initial/Reset validation) and every subsequent move is an
// injectivity-preserving tile swap. Implementations may therefore skip
// per-call validation inside Cost. Callers pricing externally supplied
// mappings must validate them first (mapping.Validate) or go through an
// entry point that does, such as core.CWM.Reset or core.CWM.Traffic.
type Objective interface {
	Cost(mp mapping.Mapping) (float64, error)
}

// DeltaObjective is an optional extension of Objective for evaluators
// that can price a single tile swap incrementally. A swap of tiles
// (ta, tb) only changes the contributions of the edges incident to the
// affected cores, so an implementation holding per-core incidence lists
// prices a move in O(deg(a)+deg(b)) instead of the O(|E|) full walk —
// the difference between tolerable and fast on large meshes, where the
// engines evaluate tens of thousands of moves per run.
//
// The protocol is bind/price/apply:
//
//	cost, _ := obj.Reset(mp)           // bind mp (copied) and price it fully
//	d, _ := obj.SwapDelta(occ, ta, tb) // price a proposed swap, no mutation
//	cost = obj.Commit(ta, tb)          // make an accepted swap permanent
//
// occ must be the occupancy view of the bound mapping (the engines
// maintain it alongside their working mapping). Each walk type-asserts
// its exact objective against this interface once, when it binds, and
// falls back to plain Cost when it is absent (the CDCM simulator keeps
// the full path: contention is global, so no cheap swap delta exists).
//
// Commit returns the exact cost of the updated baseline, and the engines
// adopt it as their tracked cost: accumulating cost += delta instead
// would let floating-point rounding drift the walk away from the
// full-recompute path and flip comparisons on exact cost ties. As a
// final guard — implementations whose deltas are only approximately
// consistent with Cost still converge — the engines also re-price the
// returned Best with one full Cost call.
//
// A DeltaObjective is stateful between Reset and the last Commit and
// therefore never safe for concurrent use; the parallel engines must
// receive an ObjectiveFactory so each worker lane binds its own instance.
type DeltaObjective interface {
	Objective
	// Reset binds a copy of mp as the incremental baseline and returns
	// its full cost. It validates mp (including injectivity) — the one
	// validation point of the hot-path contract.
	Reset(mp mapping.Mapping) (float64, error)
	// SwapDelta returns cost(swapped) − cost(bound) for exchanging the
	// occupants of ta and tb, without applying the swap. occ is the
	// occupancy view of the bound mapping.
	SwapDelta(occ []model.CoreID, ta, tb topology.TileID) (float64, error)
	// Commit applies a swap to the bound state and returns the exact
	// cost of the updated baseline. Call it exactly when the engine
	// accepts a move previously priced with SwapDelta.
	Commit(ta, tb topology.TileID) float64
}

// ObjectiveFunc adapts a plain function to the Objective interface.
type ObjectiveFunc func(mp mapping.Mapping) (float64, error)

// Cost implements Objective.
func (f ObjectiveFunc) Cost(mp mapping.Mapping) (float64, error) { return f(mp) }

// Result reports the outcome of one search run.
type Result struct {
	// Best is the lowest-cost mapping found.
	Best mapping.Mapping
	// BestCost is its objective value.
	BestCost float64
	// InitialCost is the objective value of the starting mapping.
	InitialCost float64
	// Evaluations counts candidate pricings, whatever tier priced them:
	// Evaluations == ExactEvals + BoundSkips + SurrogateEvals always
	// holds, and a tier-A run's Evaluations equals the unfiltered run's
	// (cut candidates still count — they were priced, by the cutoff).
	Evaluations int64
	// ExactEvals counts pricings that started the exact objective — for
	// CDCM, simulations started, whether the tier-A cutoff stopped them
	// part-way or they ran to completion. A run without tiers has
	// ExactEvals == Evaluations.
	ExactEvals int64
	// BoundSkips counts candidates the tier-A cutoff dismissed before
	// any exact work: for CDCM, before their first packet.
	BoundSkips int64
	// SurrogateEvals counts candidates priced by the tier-B calibrated
	// surrogate instead of the exact objective.
	SurrogateEvals int64
	// Improvements counts strict improvements of the incumbent best.
	Improvements int64
	// Certified is true when the whole space was enumerated (exhaustive
	// search without hitting a limit), i.e. Best is a global optimum.
	Certified bool
}

// Problem describes the placement instance shared by all engines.
type Problem struct {
	Mesh     *topology.Mesh
	NumCores int
	Obj      Objective
}

func (p *Problem) validate() error {
	if p.Mesh == nil {
		return errors.New("search: nil mesh")
	}
	if p.Obj == nil {
		return errors.New("search: nil objective")
	}
	if p.NumCores <= 0 || p.NumCores > p.Mesh.NumTiles() {
		return fmt.Errorf("search: %d cores cannot be placed on %d tiles",
			p.NumCores, p.Mesh.NumTiles())
	}
	return nil
}

// Annealer is the paper's simulated-annealing engine: start from a random
// mapping, propose tile swaps, accept degradations with Metropolis
// probability under a geometrically cooling temperature, and keep the best
// mapping seen.
type Annealer struct {
	Problem Problem
	// Seed makes the run reproducible.
	Seed int64
	// Initial, when non-nil, replaces the random starting mapping.
	Initial mapping.Mapping
	// InitialTemp is the starting temperature in objective units. Zero
	// auto-calibrates it from sampled moves so that ~90% of degrading
	// moves are initially accepted (objective magnitudes here are
	// picojoules, so a fixed default would be meaningless).
	InitialTemp float64
	// Alpha is the geometric cooling factor in (0,1); 0 defaults to 0.95.
	Alpha float64
	// MovesPerTemp is the number of proposed swaps per temperature step;
	// 0 defaults to 10 × NumTiles.
	MovesPerTemp int
	// TempSteps bounds the number of cooling steps; 0 defaults to 100.
	TempSteps int
	// StallSteps stops early after this many consecutive temperature
	// steps without improving the incumbent; 0 defaults to 20.
	StallSteps int
	// Reheats restarts a stalled schedule: the walk jumps back to the
	// best mapping and the temperature resets to half the previous
	// starting temperature, up to Reheats times. Reheating spends the
	// same per-step budget but escapes local basins on rugged landscapes
	// (the contention-driven CDCM objective in particular).
	Reheats int
	// Ctx, when non-nil, makes the run cancellable: the inner loops poll
	// it every few evaluations and Run returns ctx.Err() once it is done.
	// A nil Ctx (the default) takes exactly the historical code path —
	// polling never touches the RNG or the incumbent, so results are
	// bit-identical with or without a context.
	Ctx context.Context
	// OnProgress, when non-nil, receives a snapshot after every
	// temperature step. Observational only; see ProgressFunc.
	OnProgress ProgressFunc
}

// Run executes the annealing schedule.
func (a *Annealer) Run() (*Result, error) {
	if err := a.Problem.validate(); err != nil {
		return nil, err
	}
	if err := pollCtx(a.Ctx); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(a.Seed))
	res := &Result{}
	w, err := a.Problem.startWalk(rng, a.Initial, surrogateTier, res)
	if err != nil {
		return nil, err
	}
	res.InitialCost = w.cost
	res.Best = w.cur.Clone()
	res.BestCost = w.cost

	// A 1-tile mesh admits exactly one mapping, so it is already the
	// optimum — and the move proposal could never draw two distinct
	// tiles: without this return the calibration pass would spin forever.
	numTiles := a.Problem.Mesh.NumTiles()
	if numTiles < 2 {
		return res, nil
	}
	s := anneal{engine: "SA", initialTemp: a.InitialTemp, alpha: a.Alpha,
		moves: a.MovesPerTemp, steps: a.TempSteps, stall: a.StallSteps,
		reheats: a.Reheats, ctx: a.Ctx, onProgress: a.OnProgress}
	if err := s.run(rng, w.cur, numTiles, res, w); err != nil {
		return nil, err
	}
	if err := w.finish(); err != nil {
		return nil, err
	}
	return res, nil
}

// mover is the walk surface the annealing schedule drives. walk is the
// scalar Annealer's mover, vectorWalk the ParetoSA walk's.
type mover interface {
	// probe prices swapping the occupants of ta and tb without applying
	// it, counts the evaluation, and returns the delta in the walk's
	// steering domain.
	probe(ta, tb topology.TileID) (float64, error)
	// take applies the swap last probed and reports whether it improved
	// the walk's best.
	take(ta, tb topology.TileID) (bool, error)
	// reheat jumps the walk back to its incumbent best.
	reheat() error
	// scale is the magnitude the fallback starting temperature derives
	// from when calibration samples no degrading move.
	scale() float64
}

// anneal is the annealing schedule Annealer and ParetoSA share: defaults
// and validation, T0 calibration, geometric cooling with stall detection
// and reheats, and the Metropolis test. Zero fields take the defaults
// documented on Annealer.
type anneal struct {
	engine                       string
	restart                      int
	initialTemp, alpha           float64
	moves, steps, stall, reheats int
	ctx                          context.Context
	onProgress                   ProgressFunc
}

// run anneals m, whose working mapping is cur, over a mesh of numTiles
// (at least 2) tiles; res holds the walk's counters. Progress snapshots
// carry res's counters and BestCost.
func (s *anneal) run(rng *rand.Rand, cur mapping.Mapping, numTiles int, res *Result, m mover) error {
	alpha := s.alpha
	if alpha == 0 {
		alpha = 0.95
	}
	if alpha <= 0 || alpha >= 1 {
		return fmt.Errorf("search: alpha %g outside (0,1)", alpha)
	}
	moves := s.moves
	if moves == 0 {
		moves = 10 * numTiles
	}
	steps := s.steps
	if steps == 0 {
		steps = 100
	}
	stall := s.stall
	if stall == 0 {
		stall = 20
	}

	// next polls the context and proposes a swap. The first tile is drawn
	// through a uniform core, so it is always occupied: a swap of two
	// empty tiles is a no-op, and on a sparsely occupied mesh drawing
	// tiles directly wastes most draws on empty-empty pairs before
	// finding a real move.
	next := func() (ta, tb topology.TileID, err error) {
		if s.ctx != nil && res.Evaluations%pollEvery == 0 {
			if err := pollCtx(s.ctx); err != nil {
				return 0, 0, err
			}
		}
		for {
			ta = cur[rng.Intn(len(cur))]
			tb = topology.TileID(rng.Intn(numTiles))
			if ta != tb {
				return ta, tb, nil
			}
		}
	}

	temp := s.initialTemp
	if temp <= 0 {
		// Calibration pass: sample some moves and set T0 so that an
		// average degradation is accepted with probability ~0.9.
		var sum float64
		var n int
		for i := 0; i < 40; i++ {
			ta, tb, err := next()
			if err != nil {
				return err
			}
			d, err := m.probe(ta, tb)
			if err != nil {
				return err
			}
			if d > 0 {
				sum += d
				n++
			}
		}
		if n > 0 {
			temp = (sum / float64(n)) / -math.Log(0.9)
		} else {
			// Start in a local minimum w.r.t. sampled moves: any positive
			// temperature works; pick one proportional to the cost scale.
			temp = math.Max(m.scale()*0.01, 1e-300)
		}
	}

	stalled := 0
	reheatsLeft := s.reheats
	baseTemp := temp
	// Telemetry counters: updated on every move decision, emitted in
	// Progress snapshots, never read by the walk itself — so counting
	// cannot perturb the RNG stream or the incumbent. The calibration
	// probes count as neither.
	var accepted, rejected int64
	for step := 0; step < steps; step++ {
		if stalled >= stall {
			if reheatsLeft <= 0 {
				break
			}
			// Reheat: continue from the incumbent best at half the
			// previous starting temperature.
			reheatsLeft--
			baseTemp /= 2
			temp = baseTemp
			if err := m.reheat(); err != nil {
				return err
			}
			stalled = 0
		}
		improvedThisStep := false
		for mv := 0; mv < moves; mv++ {
			ta, tb, err := next()
			if err != nil {
				return err
			}
			d, err := m.probe(ta, tb)
			if err != nil {
				return err
			}
			if d <= 0 || rng.Float64() < math.Exp(-d/temp) {
				improved, err := m.take(ta, tb)
				if err != nil {
					return err
				}
				accepted++
				improvedThisStep = improvedThisStep || improved
			} else {
				rejected++
			}
		}
		if improvedThisStep {
			stalled = 0
		} else {
			stalled++
		}
		temp *= alpha
		if s.onProgress != nil {
			p := res.progress(s.engine, accepted, rejected)
			p.Restart, p.Step, p.Steps = s.restart, step+1, steps
			s.onProgress(p)
		}
	}
	return nil
}

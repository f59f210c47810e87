package search

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/mapping"
	"repro/internal/par"
	"repro/internal/topology"
)

// ObjectiveFactory builds one objective instance per worker goroutine.
// The core evaluators are stateful (the CWM route cache and incremental
// DeltaObjective binding, the CDCM wormhole simulator) and therefore not
// safe for concurrent use; the parallel engines call the factory once per
// worker lane instead of sharing Problem.Obj. A nil factory falls back to
// the shared objective, which is only correct when that objective is
// concurrency-safe (e.g. a pure ObjectiveFunc) — in particular a shared
// DeltaObjective would race on its bound mapping. Each lane's instance
// takes the same engine-internal fast path (DeltaObjective or full Cost)
// as a serial run would, so the worker count never changes results.
type ObjectiveFactory func() (Objective, error)

// perWorkerObjectives materialises one objective per worker lane. All
// instances are semantically identical evaluators, so which lane prices
// which job cannot affect results.
func perWorkerObjectives(n int, shared Objective, factory ObjectiveFactory) ([]Objective, error) {
	objs := make([]Objective, n)
	for i := range objs {
		if factory == nil {
			objs[i] = shared
			continue
		}
		obj, err := factory()
		if err != nil {
			return nil, err
		}
		objs[i] = obj
	}
	return objs, nil
}

// MultiAnnealer runs N independent annealing restarts and keeps the best
// result. Restart i derives its seed deterministically from the base run
// (Base.Seed + i), restarts are distributed over a bounded worker pool,
// and the winner is chosen by lowest cost with the lowest restart index
// breaking ties — so for a fixed Base.Seed and Restarts the outcome is
// bit-identical for every Workers value, including Workers == 1.
type MultiAnnealer struct {
	// Base configures every restart; restart i runs Base with
	// Seed = Base.Seed + int64(i).
	Base Annealer
	// Restarts is the number of independent annealing runs (0 = 1).
	// Results depend on Restarts but never on Workers.
	Restarts int
	// Workers bounds the number of concurrent restarts (0 = 1).
	Workers int
	// NewObjective supplies a private objective per worker lane; see
	// ObjectiveFactory. When nil, all restarts share Base.Problem.Obj.
	NewObjective ObjectiveFactory
}

// Run executes the restarts and merges their results. Cancellation and
// progress reporting are configured on Base: Base.Ctx cancels every
// restart (running restarts stop at their next poll, queued restarts are
// never dispatched), and Base.OnProgress receives each restart's
// snapshots with Restart set to the restart index — concurrently when
// Workers > 1, so the callback must be safe for concurrent use.
func (m *MultiAnnealer) Run() (*Result, error) {
	restarts := m.Restarts
	if restarts == 0 {
		restarts = 1
	}
	if restarts < 0 {
		return nil, fmt.Errorf("search: %d restarts", restarts)
	}
	workers := par.Workers(m.Workers)
	objs, err := perWorkerObjectives(min(workers, restarts), m.Base.Problem.Obj, m.NewObjective)
	if err != nil {
		return nil, err
	}
	probe := m.Base.Problem
	probe.Obj = objs[0]
	if err := probe.validate(); err != nil {
		return nil, err
	}
	results := make([]*Result, restarts)
	err = par.ForEachWorkerCtx(m.Base.Ctx, restarts, workers, func(w, i int) error {
		a := m.Base // copy: each restart mutates only its own Annealer
		a.Seed = m.Base.Seed + int64(i)
		a.Problem.Obj = objs[w]
		if base := m.Base.OnProgress; base != nil {
			a.OnProgress = func(p Progress) {
				p.Restart = i
				base(p)
			}
		}
		res, err := a.Run()
		if err != nil {
			return fmt.Errorf("search: restart %d: %w", i, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mergeRestarts(results), nil
}

// mergeRestarts folds per-restart results into the reported Result: the
// winner's mapping and cost, with Evaluations and Improvements summed
// across restarts (they are real objective calls and real incumbent
// improvements, and the sums are scheduling-independent). InitialCost is
// restart 0's, matching the single-run engine's meaning of "the starting
// point of the base seed".
func mergeRestarts(results []*Result) *Result {
	win := 0
	for i := 1; i < len(results); i++ {
		if results[i].BestCost < results[win].BestCost {
			win = i
		}
	}
	merged := &Result{
		Best:        results[win].Best,
		BestCost:    results[win].BestCost,
		InitialCost: results[0].InitialCost,
	}
	for _, r := range results {
		merged.addCounts(r)
	}
	return merged
}

// addCounts adds r's evaluation and improvement counters to m.
func (m *Result) addCounts(r *Result) {
	m.Evaluations += r.Evaluations
	m.ExactEvals += r.ExactEvals
	m.BoundSkips += r.BoundSkips
	m.SurrogateEvals += r.SurrogateEvals
	m.Improvements += r.Improvements
}

// ShardedExhaustive partitions the exhaustive enumeration by the tile
// assigned to core 0: one shard per candidate first tile, shards spread
// over a bounded worker pool, results merged in ascending tile order with
// a strict-improvement rule. The merged Best, BestCost, Evaluations and
// Certified are bit-identical to the serial Exhaustive engine for every
// Workers value, because serial enumeration visits first tiles in exactly
// that ascending order and keeps the first of equal-cost optima. The
// sharded path runs even at Workers == 1 (shards just execute in order on
// one goroutine), so every reported field — including the shard-local
// Improvements sum — is independent of the worker count.
type ShardedExhaustive struct {
	Problem Problem
	// Anchor pins core 0 to the canonical mesh quadrant, exactly like
	// Exhaustive.Anchor; out-of-quadrant shards are simply not spawned.
	Anchor bool
	// Limit bounds the total number of evaluated placements (0 = none).
	// A non-zero limit forces the serial engine — the limit is a global
	// early-exit whose cut point depends on enumeration order, and
	// replicating it shard-locally would change which placements are
	// seen. Serial fallback preserves the documented ErrLimit semantics.
	Limit int64
	// Workers bounds shard concurrency (0 = 1).
	Workers int
	// NewObjective supplies a private objective per worker lane; see
	// ObjectiveFactory. When nil, shards share Problem.Obj.
	NewObjective ObjectiveFactory
	// Ctx, when non-nil, cancels the enumeration: running shards stop at
	// their next poll, queued shards are never dispatched, and Run
	// returns ctx.Err(). Nil is bit-identical to the historical
	// behaviour.
	Ctx context.Context
	// OnProgress, when non-nil, receives per-shard snapshots with Restart
	// set to the shard index — concurrently when Workers > 1, so the
	// callback must be safe for concurrent use.
	OnProgress ProgressFunc
}

// Run enumerates the space.
func (s *ShardedExhaustive) Run() (*Result, error) {
	workers := par.Workers(s.Workers)
	if s.Limit > 0 {
		objs, err := perWorkerObjectives(1, s.Problem.Obj, s.NewObjective)
		if err != nil {
			return nil, err
		}
		prob := s.Problem
		prob.Obj = objs[0]
		return (&Exhaustive{Problem: prob, Anchor: s.Anchor, Limit: s.Limit,
			Ctx: s.Ctx, OnProgress: s.OnProgress}).Run()
	}

	if s.Problem.Mesh == nil {
		return nil, errors.New("search: nil mesh")
	}
	tiles := s.firstTiles()
	objs, err := perWorkerObjectives(min(workers, len(tiles)), s.Problem.Obj, s.NewObjective)
	if err != nil {
		return nil, err
	}
	probe := s.Problem
	probe.Obj = objs[0]
	if err := probe.validate(); err != nil {
		return nil, err
	}
	shards := make([]*Result, len(tiles))
	err = par.ForEachWorkerCtx(s.Ctx, len(tiles), workers, func(w, i int) error {
		prob := s.Problem
		prob.Obj = objs[w]
		res, err := prob.enumerate(s.Ctx, mapping.EnumerateOptions{AnchorCore: -1, PinFirst: true, FirstTile: tiles[i]},
			s.OnProgress, i)
		if err != nil {
			return err
		}
		shards[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mergeShards(shards), nil
}

// firstTiles lists the candidate tiles for core 0 in ascending order,
// honouring the symmetry anchor (mapping.InAnchorQuadrant, the same rule
// EnumerateOptions.AnchorCore applies).
func (s *ShardedExhaustive) firstTiles() []topology.TileID {
	mesh := s.Problem.Mesh
	var tiles []topology.TileID
	for t := 0; t < mesh.NumTiles(); t++ {
		if s.Anchor && !mapping.InAnchorQuadrant(mesh, topology.TileID(t)) {
			continue
		}
		tiles = append(tiles, topology.TileID(t))
	}
	return tiles
}

// mergeShards folds per-shard results in ascending first-tile order. The
// strict < mirrors the serial engine's incumbent rule, so equal-cost
// optima resolve to the one the serial enumeration would have found
// first. Improvements sums shard-local improvement counts (a per-shard
// quantity; the serial engine's global count depends on an interleaving
// that sharding removes). InitialCost is the first shard's first
// placement — also the first placement of the serial enumeration.
func mergeShards(shards []*Result) *Result {
	merged := &Result{BestCost: math.Inf(1), Certified: true}
	for i, r := range shards {
		merged.addCounts(r)
		if i == 0 {
			merged.InitialCost = r.InitialCost
		}
		if r.Best != nil && r.BestCost < merged.BestCost {
			merged.BestCost = r.BestCost
			merged.Best = r.Best
		}
	}
	return merged
}

package search

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/mapping"
	"repro/internal/par"
)

// ParetoSA approximates the Pareto front of a VectorObjective with
// archived, weight-swept simulated annealing: Walks independent SA walks
// run concurrently, each optimising a different scalarisation of the
// component vector, and every evaluated candidate — accepted or not — is
// offered to a per-walk dominance archive. The per-walk archives merge in
// walk order into the returned front.
//
// The first K walks (K = number of axes) optimise one pure axis each, so
// the front always probes the extremes; later walks draw their weight
// vector from the walk RNG, filling in the middle. Components are
// normalised by the walk's starting point before weighting, so axes with
// picojoule and kilocycle magnitudes trade off on comparable scales.
//
// Determinism follows the MultiAnnealer idiom: walk i seeds its RNG with
// Seed+i, walks are distributed over a bounded worker pool with one
// objective instance per worker lane, and both the per-walk archives and
// the merge are order-independent for equal component vectors (see
// Archive) — so for a fixed Seed and Walks the front is bit-identical
// for every Workers value, including Workers == 1.
type ParetoSA struct {
	// Problem describes the instance. Problem.Obj must implement
	// VectorObjective (as must every objective built by NewObjective).
	Problem Problem
	// Seed makes the run reproducible; walk i uses Seed + int64(i).
	Seed int64
	// Initial, when non-nil, replaces walk 0's random starting mapping —
	// the warm-start seam (mapping.SeedGreedy plugs in here). Other walks
	// keep random starts for diversity.
	Initial mapping.Mapping
	// InitialTemp, Alpha, MovesPerTemp, TempSteps and StallSteps tune
	// each walk's annealing schedule exactly as on Annealer (zero values
	// take the same defaults). Walks do not reheat: escaping a basin is
	// the job of the other walks' different scalarisations.
	InitialTemp  float64
	Alpha        float64
	MovesPerTemp int
	TempSteps    int
	StallSteps   int
	// Walks is the number of independent weight-swept walks (0 = one per
	// axis plus four interior weightings). Results depend on Walks but
	// never on Workers.
	Walks int
	// FrontSize bounds the returned front and each walk's archive;
	// overflow evicts the most crowded point (0 = DefaultFrontSize).
	FrontSize int
	// Workers bounds the number of concurrent walks (0 = 1).
	Workers int
	// NewObjective supplies a private objective per worker lane; see
	// ObjectiveFactory. Required when the objective is stateful (both
	// core evaluators are). Each built objective must implement
	// VectorObjective.
	NewObjective ObjectiveFactory
	// Ctx, when non-nil, makes the run cancellable exactly like
	// Annealer.Ctx; the nil path is bit-identical.
	Ctx context.Context
	// OnProgress, when non-nil, receives per-walk snapshots with Restart
	// set to the walk index and BestCost to the walk's best scalar
	// collapse — concurrently when Workers > 1, so the callback must be
	// safe for concurrent use.
	OnProgress ProgressFunc
}

// DefaultFrontSize bounds the front when ParetoSA.FrontSize is zero:
// large enough to resolve the energy×latency trade-off curves of the
// paper's instances, small enough that crowding pruning keeps archive
// maintenance off the critical path.
const DefaultFrontSize = 32

// paretoWalk is one walk's contribution, merged in walk order: its
// archive, and its counters and InitialCost in the embedded Result.
type paretoWalk struct {
	archive *Archive
	Result
}

// vectorObjective extracts the VectorObjective view of obj, which the
// front engine requires.
func vectorObjective(obj Objective) (VectorObjective, error) {
	v, ok := obj.(VectorObjective)
	if !ok {
		return nil, fmt.Errorf("search: pareto engine needs a VectorObjective, got %T", obj)
	}
	return v, nil
}

// Run executes the walks and merges their archives into the front.
func (e *ParetoSA) Run() (*FrontResult, error) {
	if err := e.Problem.validate(); err != nil {
		return nil, err
	}
	if err := pollCtx(e.Ctx); err != nil {
		return nil, err
	}
	shared, err := vectorObjective(e.Problem.Obj)
	if err != nil {
		return nil, err
	}
	axes := shared.Axes()
	k := len(axes)
	if k == 0 {
		return nil, fmt.Errorf("search: vector objective reports no axes")
	}
	walks := e.Walks
	if walks == 0 {
		walks = k + 4
	}
	if walks < 0 {
		return nil, fmt.Errorf("search: %d walks", walks)
	}
	frontSize := e.FrontSize
	if frontSize == 0 {
		frontSize = DefaultFrontSize
	}
	if frontSize < 0 {
		return nil, fmt.Errorf("search: front size %d", frontSize)
	}
	workers := par.Workers(e.Workers)
	objs, err := perWorkerObjectives(min(workers, walks), e.Problem.Obj, e.NewObjective)
	if err != nil {
		return nil, err
	}
	vobjs := make([]VectorObjective, len(objs))
	for i, obj := range objs {
		if vobjs[i], err = vectorObjective(obj); err != nil {
			return nil, err
		}
	}

	results := make([]*paretoWalk, walks)
	err = par.ForEachWorkerCtx(e.Ctx, walks, workers, func(w, i int) error {
		res, err := e.walk(i, vobjs[w], k, frontSize)
		if err != nil {
			return fmt.Errorf("search: pareto walk %d: %w", i, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	front := &FrontResult{
		Axes:    axes,
		Weights: shared.CollapseWeights(),
	}
	merged := NewArchive(frontSize)
	for i, r := range results {
		if i == 0 {
			front.InitialCost = r.InitialCost
		}
		front.Evaluations += r.Evaluations
		front.ExactEvals += r.ExactEvals
		front.SurrogateEvals += r.SurrogateEvals
		front.Improvements += r.archive.Inserted()
		for _, p := range r.archive.Points() {
			merged.OfferPoint(p)
		}
	}
	front.Points = merged.Points()
	return front, nil
}

// walkWeights returns walk i's scalarisation weights over k axes: pure
// axis weights for the first k walks, then normalised draws from the
// walk RNG. The draws happen before the walk touches the RNG for
// anything else, so a walk's weights depend only on (Seed, i, k).
func walkWeights(rng *rand.Rand, i, k int) []float64 {
	w := make([]float64, k)
	if i < k {
		w[i] = 1
		return w
	}
	var sum float64
	for ax := range w {
		// 1-Float64 is in (0,1]: no all-zero vector, every axis retains
		// at least infinitesimal pressure.
		w[ax] = 1 - rng.Float64()
		sum += w[ax]
	}
	for ax := range w {
		w[ax] /= sum
	}
	return w
}

// walk runs one weight-swept annealing walk, offering every evaluated
// candidate to a fresh archive.
func (e *ParetoSA) walk(i int, obj VectorObjective, k, frontSize int) (*paretoWalk, error) {
	rng := rand.New(rand.NewSource(e.Seed + int64(i)))
	weights := walkWeights(rng, i, k)
	initial := e.Initial
	if i != 0 {
		initial = nil
	}
	cur, err := e.Problem.start(rng, initial)
	if err != nil {
		return nil, err
	}
	numTiles := e.Problem.Mesh.NumTiles()
	res := &paretoWalk{archive: NewArchive(frontSize)}
	w, err := bindVector(obj, cur, numTiles, weights, &res.Result, res.archive)
	if err != nil {
		return nil, err
	}

	// A 1-tile mesh admits exactly one mapping; see Annealer.Run.
	if numTiles < 2 {
		return res, nil
	}
	s := anneal{engine: "pareto", restart: i, initialTemp: e.InitialTemp, alpha: e.Alpha,
		moves: e.MovesPerTemp, steps: e.TempSteps, stall: e.StallSteps,
		ctx: e.Ctx, onProgress: e.OnProgress}
	if err := s.run(rng, cur, numTiles, &res.Result, w); err != nil {
		return nil, err
	}
	return res, nil
}

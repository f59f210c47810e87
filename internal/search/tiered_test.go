package search

import (
	"math"
	"testing"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/topology"
)

// cutWire wraps the wireLength test objective as a CutoffObjective
// that cuts every candidate it may: one whose cost minus a small epsilon
// (a lower bound, like a critical path) already proves d ≥ maxDelta is
// cut at its start, one whose exact cost proves it is cut part-way. It
// filters almost every non-improving swap — the strongest possible
// stress on the bit-identity contract.
type cutWire struct {
	w    *wireLength
	eps  float64
	cuts [3]int
}

var _ CutoffObjective = (*cutWire)(nil)

func (k *cutWire) CostCutoff(mp mapping.Mapping, base, maxDelta float64) (float64, Cut, error) {
	c, err := k.w.Cost(mp)
	if err != nil {
		return 0, NotCut, err
	}
	cut := NotCut
	switch {
	case (c-k.eps)-base >= maxDelta:
		cut = CutAtStart
	case c-base >= maxDelta:
		cut = CutInRun
	}
	k.cuts[cut]++
	if cut != NotCut {
		return 0, cut, nil
	}
	return c, NotCut, nil
}

// surrWire distorts deltaWireLength into a tier-B style surrogate: an
// affine transformation of the exact cost. It predicts ranks correctly
// (the distortion is monotone) but its values are never the exact
// objective's, so any surrogate number leaking into a reported result
// trips the bitwise assertions downstream.
type surrWire struct {
	deltaWireLength
}

func (s *surrWire) Reset(mp mapping.Mapping) (float64, error) {
	c, err := s.deltaWireLength.Reset(mp)
	return 1.25*c + 3, err
}

func (s *surrWire) SwapDelta(occ []model.CoreID, ta, tb topology.TileID) (float64, error) {
	d, err := s.deltaWireLength.SwapDelta(occ, ta, tb)
	return 1.25 * d, err
}

func (s *surrWire) Commit(ta, tb topology.TileID) float64 {
	return 1.25*s.deltaWireLength.Commit(ta, tb) + 3
}

func checkTierInvariant(t *testing.T, name string, res *Result) {
	t.Helper()
	if got := res.ExactEvals + res.BoundSkips + res.SurrogateEvals; got != res.Evaluations {
		t.Fatalf("%s: ExactEvals %d + BoundSkips %d + SurrogateEvals %d != Evaluations %d",
			name, res.ExactEvals, res.BoundSkips, res.SurrogateEvals, res.Evaluations)
	}
}

// TestTierAFilterBitIdentical pins the tier-A contract at the engine
// level with a synthetic cutoff: HillClimber and Tabu runs over
// TieredObjective{Exact, Cutoff} reproduce the bare runs bit for bit
// while cutting candidates both at their start (BoundSkips > 0) and
// part-way (counted as ExactEvals).
func TestTierAFilterBitIdentical(t *testing.T) {
	p, w := testProblem(t, 4, 3, 10)
	inRun := 0
	for _, engine := range []string{"hill", "tabu"} {
		run := func(obj Objective) *Result {
			prob := p
			prob.Obj = obj
			var res *Result
			var err error
			if engine == "hill" {
				res, err = (&HillClimber{Problem: prob, Seed: 3}).Run()
			} else {
				res, err = (&Tabu{Problem: prob, Seed: 3, Iterations: 30}).Run()
			}
			if err != nil {
				t.Fatalf("%s: %v", engine, err)
			}
			return res
		}
		bare := run(w)
		cw := &cutWire{w: w, eps: 1e-9}
		tiered := run(&TieredObjective{Exact: w, Cutoff: cw})

		if !mapping.Equal(bare.Best, tiered.Best) {
			t.Fatalf("%s: tiered best %v != bare best %v", engine, tiered.Best, bare.Best)
		}
		if math.Float64bits(bare.BestCost) != math.Float64bits(tiered.BestCost) {
			t.Fatalf("%s: tiered cost %g != bare cost %g", engine, tiered.BestCost, bare.BestCost)
		}
		if bare.Evaluations != tiered.Evaluations || bare.Improvements != tiered.Improvements {
			t.Fatalf("%s: tiered (evals %d, impr %d) != bare (evals %d, impr %d)",
				engine, tiered.Evaluations, tiered.Improvements, bare.Evaluations, bare.Improvements)
		}
		if tiered.BoundSkips == 0 || int64(cw.cuts[CutAtStart]) != tiered.BoundSkips {
			t.Fatalf("%s: BoundSkips %d, start cuts %d", engine, tiered.BoundSkips, cw.cuts[CutAtStart])
		}
		inRun += cw.cuts[CutInRun]
		if tiered.ExactEvals >= bare.ExactEvals {
			t.Fatalf("%s: the cutoff saved no exact evaluations (%d vs %d)",
				engine, tiered.ExactEvals, bare.ExactEvals)
		}
		checkTierInvariant(t, engine+"/bare", bare)
		checkTierInvariant(t, engine+"/tiered", tiered)
	}
	if inRun == 0 {
		t.Fatal("the cutoff never cut part-way")
	}
}

// TestIncumbentAuditInvariant pins the walk's tracked-cost rule (the
// drift guard): after every applied move — on the full and delta paths
// of every move engine, the cutoff path of the neighbourhood
// engines and the surrogate path of the annealer — w.cost is bitwise the
// exactly recomputed cost of w.cur, never an accumulation of deltas, and
// the occupancy view matches w.cur.
func TestIncumbentAuditInvariant(t *testing.T) {
	audits := 0
	var name string
	walkAudit = func(w *walk) {
		audits++
		c, err := w.obj.Cost(w.cur)
		if err != nil {
			t.Fatalf("%s audit: %v", name, err)
		}
		if math.Float64bits(c) != math.Float64bits(w.cost) {
			t.Fatalf("%s audit %d: w.cost %x drifted from exact %x",
				name, audits, math.Float64bits(w.cost), math.Float64bits(c))
		}
		for core, tile := range w.cur {
			if w.occ[tile] != model.CoreID(core) {
				t.Fatalf("%s audit: occupancy view drifted at tile %d", name, tile)
			}
		}
	}
	defer func() { walkAudit = nil }()

	p, w := testProblem(t, 4, 3, 10)
	withObj := func(obj Objective) Problem {
		prob := p
		prob.Obj = obj
		return prob
	}
	engines := map[string]func(Problem) error{
		"hill": func(prob Problem) error {
			_, err := (&HillClimber{Problem: prob, Seed: 3}).Run()
			return err
		},
		"tabu": func(prob Problem) error {
			_, err := (&Tabu{Problem: prob, Seed: 3, Iterations: 20}).Run()
			return err
		},
		"sa": func(prob Problem) error {
			_, err := (&Annealer{Problem: prob, Seed: 3, TempSteps: 10, MovesPerTemp: 20,
				StallSteps: 2, Reheats: 2}).Run()
			return err
		},
	}
	cases := []struct {
		tier, engine string
		obj          Objective
	}{
		{"full", "hill", w},
		{"full", "tabu", w},
		{"full", "sa", w},
		{"delta", "hill", &deltaWireLength{wireLength: *w}},
		{"delta", "tabu", &deltaWireLength{wireLength: *w}},
		{"delta", "sa", &deltaWireLength{wireLength: *w}},
		{"cutoff", "hill", &TieredObjective{Exact: w, Cutoff: &cutWire{w: w, eps: 1e-9}}},
		{"cutoff", "tabu", &TieredObjective{Exact: w, Cutoff: &cutWire{w: w, eps: 1e-9}}},
		{"surrogate", "sa", &TieredObjective{Exact: w, Surrogate: &surrWire{deltaWireLength{wireLength: *w}}}},
	}
	for _, tc := range cases {
		name = tc.tier + "/" + tc.engine
		before := audits
		if err := engines[tc.engine](withObj(tc.obj)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if audits == before {
			t.Fatalf("%s: no applied move audited", name)
		}
	}
}

// TestAnnealerSurrogateExactResults pins the tier-B protocol on the
// annealer: the walk prices candidates on the surrogate (SurrogateEvals
// > 0), exact-reprices every accepted move, and reports a Best whose
// cost the exact objective reproduces bit for bit. Two identical runs
// must agree exactly, including after reheats.
func TestAnnealerSurrogateExactResults(t *testing.T) {
	p, w := testProblem(t, 4, 3, 10)
	run := func() *Result {
		prob := p
		prob.Obj = &TieredObjective{Exact: w, Surrogate: &surrWire{deltaWireLength{wireLength: *w}}}
		res, err := (&Annealer{Problem: prob, Seed: 11, TempSteps: 15, MovesPerTemp: 20,
			StallSteps: 3, Reheats: 1}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run()
	if a.SurrogateEvals == 0 {
		t.Fatal("surrogate never priced a candidate")
	}
	if a.ExactEvals == 0 {
		t.Fatal("no exact evaluations: accepted moves were not repriced")
	}
	checkTierInvariant(t, "annealer", a)
	exact, err := w.Cost(a.Best)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(exact) != math.Float64bits(a.BestCost) {
		t.Fatalf("BestCost %x is not the exact price %x — a surrogate value leaked",
			math.Float64bits(a.BestCost), math.Float64bits(exact))
	}
	b := run()
	if !mapping.Equal(a.Best, b.Best) || a.BestCost != b.BestCost ||
		a.Evaluations != b.Evaluations || a.SurrogateEvals != b.SurrogateEvals ||
		a.ExactEvals != b.ExactEvals {
		t.Fatal("surrogate annealer is not deterministic under a fixed seed")
	}
}

// vecSurrWire is surrWire's vector counterpart for the Pareto engine: a
// DeltaObjective + VectorObjective whose components are a uniform
// distortion of vecWire's, so the walk ranks sensibly but any surrogate
// component leaking into the archive trips the bitwise checks.
type vecSurrWire struct {
	surrWire
	v *vecWire
}

func (s *vecSurrWire) Axes() []string             { return s.v.Axes() }
func (s *vecSurrWire) CollapseWeights() []float64 { return s.v.CollapseWeights() }

func (s *vecSurrWire) ComponentsInto(mp mapping.Mapping, dst []float64) error {
	if err := s.v.ComponentsInto(mp, dst); err != nil {
		return err
	}
	for i := range dst[:len(s.v.Axes())] {
		dst[i] = 1.25*dst[i] + 3
	}
	return nil
}

// TestParetoSurrogateFrontExact pins the tier-B protocol on the front
// engine: the walk runs in the surrogate domain but only exact
// components ever reach the archive, and the run stays deterministic
// across worker counts.
func TestParetoSurrogateFrontExact(t *testing.T) {
	p, v := testVecProblem(t, 4, 3, 10)
	scalarFlows := &wireLength{mesh: v.a.mesh, flows: append(append([][3]int{}, v.a.flows...), v.b.flows...)}
	newObj := func() (Objective, error) {
		return &TieredObjective{
			Exact:     v,
			Surrogate: &vecSurrWire{surrWire{deltaWireLength{wireLength: *scalarFlows}}, v},
		}, nil
	}
	var ref *FrontResult
	for workers := 1; workers <= 2; workers++ {
		obj, _ := newObj()
		prob := p
		prob.Obj = obj
		front, err := (&ParetoSA{Problem: prob, Seed: 19, TempSteps: 10, MovesPerTemp: 15,
			Walks: 2, Workers: workers, NewObjective: newObj}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if front.SurrogateEvals == 0 {
			t.Fatalf("workers=%d: surrogate never priced a candidate", workers)
		}
		if got := front.ExactEvals + front.SurrogateEvals; got != front.Evaluations {
			t.Fatalf("workers=%d: counters sum to %d, Evaluations is %d", workers, got, front.Evaluations)
		}
		dst := make([]float64, len(front.Axes))
		for i, pt := range front.Points {
			if err := v.ComponentsInto(pt.Mapping, dst); err != nil {
				t.Fatal(err)
			}
			for a := range dst {
				if math.Float64bits(dst[a]) != math.Float64bits(pt.Components[a]) {
					t.Fatalf("workers=%d point %d axis %d: archived %g != exact %g — surrogate leaked",
						workers, i, a, pt.Components[a], dst[a])
				}
			}
		}
		if ref == nil {
			ref = front
			continue
		}
		if len(ref.Points) != len(front.Points) {
			t.Fatalf("workers=%d: front size %d != workers=1 size %d",
				workers, len(front.Points), len(ref.Points))
		}
		for i := range front.Points {
			if !mapping.Equal(ref.Points[i].Mapping, front.Points[i].Mapping) {
				t.Fatalf("workers=%d: point %d diverges from workers=1", workers, i)
			}
		}
	}
}

// TestProgressTierCountersMonotone pins the telemetry contract of the
// split counters: within one engine run every snapshot's ExactEvals,
// BoundSkips and SurrogateEvals are non-decreasing and always sum to
// Evaluations — the same monotonicity the service layer's clamps rely
// on.
func TestProgressTierCountersMonotone(t *testing.T) {
	p, w := testProblem(t, 4, 3, 10)
	check := func(name string, snaps []Progress) {
		t.Helper()
		if len(snaps) == 0 {
			t.Fatalf("%s: no progress snapshots", name)
		}
		var prev Progress
		for i, s := range snaps {
			if s.ExactEvals+s.BoundSkips+s.SurrogateEvals != s.Evaluations {
				t.Fatalf("%s snapshot %d: tier counters %d+%d+%d != Evaluations %d",
					name, i, s.ExactEvals, s.BoundSkips, s.SurrogateEvals, s.Evaluations)
			}
			if s.ExactEvals < prev.ExactEvals || s.BoundSkips < prev.BoundSkips ||
				s.SurrogateEvals < prev.SurrogateEvals {
				t.Fatalf("%s snapshot %d: tier counter decreased: %+v after %+v", name, i, s, prev)
			}
			prev = s
		}
	}

	var snaps []Progress
	collect := func(pr Progress) { snaps = append(snaps, pr) }

	prob := p
	prob.Obj = &TieredObjective{Exact: w, Cutoff: &cutWire{w: w, eps: 1e-9}}
	if _, err := (&HillClimber{Problem: prob, Seed: 3, OnProgress: collect}).Run(); err != nil {
		t.Fatal(err)
	}
	check("hill", snaps)
	hill := snaps[len(snaps)-1]
	if hill.BoundSkips == 0 {
		t.Fatal("hill: snapshots never saw a start cut")
	}

	snaps = nil
	if _, err := (&Tabu{Problem: prob, Seed: 3, Iterations: 20, OnProgress: collect}).Run(); err != nil {
		t.Fatal(err)
	}
	check("tabu", snaps)

	snaps = nil
	sprob := p
	sprob.Obj = &TieredObjective{Exact: w, Surrogate: &surrWire{deltaWireLength{wireLength: *w}}}
	if _, err := (&Annealer{Problem: sprob, Seed: 11, TempSteps: 10, MovesPerTemp: 30,
		OnProgress: collect}).Run(); err != nil {
		t.Fatal(err)
	}
	check("sa", snaps)
	if last := snaps[len(snaps)-1]; last.SurrogateEvals == 0 {
		t.Fatal("sa: snapshots never saw a surrogate evaluation")
	}
}

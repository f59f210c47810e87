package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/appgen"
	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/search"
	"repro/internal/topology"
	"repro/internal/wormhole"
)

// tieredGrid is one (mesh, application) pair of the two-tier test matrix;
// the instance is regenerated per grid so every core fits.
type tieredGrid struct {
	name string
	mesh *topology.Mesh
	g    *model.CDCG
}

func tieredGrids(t testing.TB) []tieredGrid {
	t.Helper()
	mk := func(name string, mesh *topology.Mesh, err error, cores int) tieredGrid {
		if err != nil {
			t.Fatal(err)
		}
		g, err := appgen.Generate(appgen.Params{
			Name:      "tiered-" + name,
			Cores:     cores,
			Packets:   8 * cores,
			TotalBits: int64(5000 * cores),
			Seed:      99,
			Chains:    cores / 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tieredGrid{name: name, mesh: mesh, g: g}
	}
	m2, err2 := topology.NewMesh(4, 3)
	m3, err3 := topology.NewMesh3D(3, 2, 2)
	tr, errT := topology.NewTorus3D(3, 2, 2)
	return []tieredGrid{
		mk("mesh2d", m2, err2, 10),
		mk("mesh3d", m3, err3, 10),
		mk("torus3d", tr, errT, 10),
	}
}

// tieredCfg exercises the vadj path on 3-D grids: a TSV hop slower than a
// planar link makes the V·(tTSV−tl) critical-path term non-zero.
func tieredCfg() noc.Config {
	cfg := noc.Default()
	cfg.TSVLinkCycles = 3
	return cfg
}

// TestTierAHillTabuBitIdentical is tier A's central contract: a
// HillClimber or Tabu run over TieredObjective{Exact, Cutoff} must
// retrace the bare-CDCM run bit for bit — same Best, same BestCost, same
// Evaluations and Improvements — while actually cutting candidates, both
// before their first packet (BoundSkips > 0) and part-way through (fewer
// simulated packets than the bare run). Covered on 2-D mesh, 3-D mesh
// and 3-D torus.
func TestTierAHillTabuBitIdentical(t *testing.T) {
	cfg, tech := tieredCfg(), energy.Tech007
	for _, grid := range tieredGrids(t) {
		cdcm, err := NewCDCM(grid.mesh, cfg, tech, grid.g)
		if err != nil {
			t.Fatal(err)
		}
		run := func(engine string, obj search.Objective) *search.Result {
			prob := search.Problem{Mesh: grid.mesh, NumCores: grid.g.NumCores(), Obj: obj}
			var res *search.Result
			var err error
			if engine == "hill" {
				res, err = (&search.HillClimber{Problem: prob, Seed: 7}).Run()
			} else {
				res, err = (&search.Tabu{Problem: prob, Seed: 7, Iterations: 40}).Run()
			}
			if err != nil {
				t.Fatalf("%s/%s: %v", grid.name, engine, err)
			}
			return res
		}
		for _, engine := range []string{"hill", "tabu"} {
			bare := run(engine, cdcm.Clone())
			cuts := &countedCutoff{c: cdcm.Clone()}
			tiered := run(engine, &search.TieredObjective{Exact: cuts.c, Cutoff: cuts})

			if !mapping.Equal(bare.Best, tiered.Best) {
				t.Fatalf("%s/%s: tiered best %v != bare best %v", grid.name, engine, tiered.Best, bare.Best)
			}
			if math.Float64bits(bare.BestCost) != math.Float64bits(tiered.BestCost) {
				t.Fatalf("%s/%s: tiered cost %x != bare cost %x", grid.name, engine,
					math.Float64bits(tiered.BestCost), math.Float64bits(bare.BestCost))
			}
			if bare.Evaluations != tiered.Evaluations || bare.Improvements != tiered.Improvements {
				t.Fatalf("%s/%s: tiered (evals %d, impr %d) != bare (evals %d, impr %d)",
					grid.name, engine, tiered.Evaluations, tiered.Improvements,
					bare.Evaluations, bare.Improvements)
			}
			if tiered.BoundSkips == 0 {
				t.Fatalf("%s/%s: the cutoff never cut a candidate at its start", grid.name, engine)
			}
			if cuts.n[search.CutInRun] == 0 {
				t.Fatalf("%s/%s: the cutoff never cut a running simulation", grid.name, engine)
			}
			if got := int64(cuts.n[search.CutAtStart]); got != tiered.BoundSkips {
				t.Fatalf("%s/%s: %d start cuts, BoundSkips %d", grid.name, engine, got, tiered.BoundSkips)
			}
			if bare.BoundSkips != 0 || bare.SurrogateEvals != 0 {
				t.Fatalf("%s/%s: bare run reports tier counters (%d skips, %d surrogate)",
					grid.name, engine, bare.BoundSkips, bare.SurrogateEvals)
			}
			checkTierSum(t, grid.name+"/"+engine+"/bare", bare)
			checkTierSum(t, grid.name+"/"+engine+"/tiered", tiered)
			if bare.ExactEvals != bare.Evaluations {
				t.Fatalf("%s/%s: bare ExactEvals %d != Evaluations %d",
					grid.name, engine, bare.ExactEvals, bare.Evaluations)
			}
		}
	}
}

// countedCutoff tallies the outcomes of a lane's cutoff calls.
type countedCutoff struct {
	c *CDCM
	n [3]int
}

func (o *countedCutoff) CostCutoff(mp mapping.Mapping, base, maxDelta float64) (float64, search.Cut, error) {
	c, cut, err := o.c.CostCutoff(mp, base, maxDelta)
	o.n[cut]++
	return c, cut, err
}

func checkTierSum(t *testing.T, name string, res *search.Result) {
	t.Helper()
	if got := res.ExactEvals + res.BoundSkips + res.SurrogateEvals; got != res.Evaluations {
		t.Fatalf("%s: tier counters sum to %d, Evaluations is %d", name, got, res.Evaluations)
	}
}

// TestTierABoundCertified is the property test behind the cut rule:
// every cut the cutoff makes is confirmed by a full Cost — on the
// computed float64s, cost − base ≥ maxDelta — and every uncut call
// returns Cost bit for bit, across 2-D/3-D/torus grids, both buffer
// policies, and fault sets routed with RouteFault. The thresholds
// include each candidate's own exact delta and the next float above it,
// where a cut is only just right and only just wrong.
func TestTierABoundCertified(t *testing.T) {
	tech := energy.Tech007
	var outcomes [3]int
	for _, grid := range tieredGrids(t) {
		var faultSets []*topology.FaultSet
		faultSets = append(faultSets, nil)
		fs, err := topology.GenerateFaults(grid.mesh, 0.1, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !fs.Empty() {
			faultSets = append(faultSets, fs)
		}
		for _, buffers := range []noc.BufferPolicy{noc.BuffersUnbounded, noc.BuffersBounded} {
			cfg := tieredCfg()
			cfg.Buffers = buffers
			if buffers == noc.BuffersBounded {
				cfg.BufferFlits = 4
			}
			for fi, fs := range faultSets {
				name := fmt.Sprintf("%s/%s/faults=%d", grid.name, buffers, fi)
				var exact *CDCM
				if fs == nil {
					exact, err = NewCDCM(grid.mesh, cfg, tech, grid.g)
				} else {
					exact, err = NewCDCMFaults(grid.mesh, cfg, tech, grid.g, fs)
				}
				if err != nil {
					t.Fatal(err)
				}
				lane := exact.Clone()
				rng := rand.New(rand.NewSource(11))
				tiles := grid.mesh.NumTiles()
				for trial := 0; trial < 12; trial++ {
					mp, err := mapping.Random(rng, grid.g.NumCores(), tiles)
					if err != nil {
						t.Fatal(err)
					}
					base, err := exact.Cost(mp)
					if errors.Is(err, topology.ErrUnreachable) {
						continue
					}
					if err != nil {
						t.Fatalf("%s trial %d: %v", name, trial, err)
					}
					for s := 0; s < 8; s++ {
						ta := topology.TileID(rng.Intn(tiles))
						tb := topology.TileID(rng.Intn(tiles))
						if ta == tb {
							continue
						}
						sm := mp.Clone()
						mapping.SwapTiles(sm, mp.Occupants(tiles), ta, tb)
						cost, err := exact.Cost(sm)
						if errors.Is(err, topology.ErrUnreachable) {
							if _, _, cerr := lane.CostCutoff(sm, base, 0); !errors.Is(cerr, topology.ErrUnreachable) {
								t.Fatalf("%s trial %d swap %d: cutoff error %v, Cost says unreachable", name, trial, s, cerr)
							}
							continue
						}
						if err != nil {
							t.Fatalf("%s trial %d swap %d: %v", name, trial, s, err)
						}
						d := cost - base
						for _, maxDelta := range []float64{d, math.Nextafter(d, math.Inf(1)), 0,
							-math.Abs(d) / 2, 2 * math.Abs(d), math.Inf(1), math.Inf(-1)} {
							c, cut, err := lane.CostCutoff(sm, base, maxDelta)
							if err != nil {
								t.Fatalf("%s trial %d swap (%d,%d): %v", name, trial, ta, tb, err)
							}
							outcomes[cut]++
							if cut != search.NotCut {
								if !(cost-base >= maxDelta) {
									t.Fatalf("%s trial %d swap (%d,%d): cut (%d) at maxDelta %.17g, but cost %.17g − base %.17g = %.17g",
										name, trial, ta, tb, cut, maxDelta, cost, base, cost-base)
								}
								continue
							}
							if math.Float64bits(c) != math.Float64bits(cost) {
								t.Fatalf("%s trial %d swap (%d,%d): uncut cutoff price %x != Cost %x",
									name, trial, ta, tb, math.Float64bits(c), math.Float64bits(cost))
							}
						}
					}
				}
			}
		}
	}
	for cut, n := range outcomes {
		if n == 0 {
			t.Fatalf("the matrix never produced outcome %d (outcomes %v)", cut, outcomes)
		}
	}
}

// TestCutoffLimitExact pins the limit search against the certificate it
// inverts: the returned texec loses and the one below it does not, for
// thresholds around real costs and at the extremes.
func TestCutoffLimitExact(t *testing.T) {
	grid := tieredGrids(t)[1]
	cdcm, err := NewCDCM(grid.mesh, tieredCfg(), energy.Tech007, grid.g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	tr := wormhole.Traffic{RouterBits: 90000, LinkBits: 50000, TSVBits: 8000, CoreBits: 80000}
	dyn := cdcm.Tech.DynamicFromTraffic3D(tr.RouterBits, tr.LinkBits, tr.TSVBits, tr.CoreBits)
	perCycle := cdcm.Tech.StaticEnergy(grid.mesh.NumTiles(), cdcm.sim.Cfg.CyclesToSeconds(1))
	for i := 0; i < 2000; i++ {
		base := dyn + perCycle*float64(rng.Int63n(1e6))
		maxDelta := perCycle * (rng.Float64()*2e6 - 1e6)
		switch i {
		case 0:
			maxDelta = math.Inf(-1)
		case 1:
			maxDelta = math.Inf(1)
		case 2:
			maxDelta = math.NaN()
		case 3:
			maxDelta = 1e300
		}
		k := cdcmCutoff{c: cdcm, base: base, maxDelta: maxDelta}
		lim := k.Limit(tr)
		if lim != math.MaxInt64 && !k.loses(dyn, lim) {
			t.Fatalf("case %d: limit %d does not lose (base %g, maxDelta %g)", i, lim, base, maxDelta)
		}
		if lim > 0 && k.loses(dyn, lim-1) {
			t.Fatalf("case %d: limit %d is not the smallest losing texec (base %g, maxDelta %g)", i, lim, base, maxDelta)
		}
	}
}

// TestSurrogateDeltaAndCollapseIdentity pins the tier-B evaluator's
// internal consistency: its incremental path reproduces its full path bit
// for bit (SwapDelta equals the difference of full costs; Commit returns
// the full cost of the updated baseline), and its scalar equals the
// collapsed vector — the same contracts CWM and CDCM honour.
func TestSurrogateDeltaAndCollapseIdentity(t *testing.T) {
	mesh, g := deltaInstance3D(t, 3, 2, 2, 10)
	cfg, tech := tieredCfg(), energy.Tech007
	exact, err := NewCDCM(mesh, cfg, tech, g)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := fitSurrogate(mesh, cfg, tech, g, exact, 21, 8)
	if err != nil {
		t.Fatal(err)
	}
	surr, err := newCDCMSurrogate(mesh, cfg, tech, g, fit)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	tiles := mesh.NumTiles()
	comps := make([]float64, len(surr.Axes()))
	for trial := 0; trial < 10; trial++ {
		mp, err := mapping.Random(rng, g.NumCores(), tiles)
		if err != nil {
			t.Fatal(err)
		}
		base, err := surr.Reset(mp)
		if err != nil {
			t.Fatal(err)
		}
		full, err := surr.Cost(mp)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(base) != math.Float64bits(full) {
			t.Fatalf("trial %d: Reset %x != Cost %x", trial, math.Float64bits(base), math.Float64bits(full))
		}
		if err := surr.ComponentsInto(mp, comps); err != nil {
			t.Fatal(err)
		}
		if c := search.Collapse(surr.CollapseWeights(), comps); math.Float64bits(c) != math.Float64bits(full) {
			t.Fatalf("trial %d: collapse %x != Cost %x", trial, math.Float64bits(c), math.Float64bits(full))
		}
		occ := mp.Occupants(tiles)
		for s := 0; s < 6; s++ {
			ta := topology.TileID(rng.Intn(tiles))
			tb := topology.TileID(rng.Intn(tiles))
			if ta == tb {
				continue
			}
			d, err := surr.SwapDelta(occ, ta, tb)
			if err != nil {
				t.Fatal(err)
			}
			sm := mp.Clone()
			socc := mp.Occupants(tiles)
			mapping.SwapTiles(sm, socc, ta, tb)
			sfull, err := surr.Cost(sm)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(d) != math.Float64bits(sfull-full) {
				t.Fatalf("trial %d swap (%d,%d): delta %x != cost difference %x",
					trial, ta, tb, math.Float64bits(d), math.Float64bits(sfull-full))
			}
			// Fold the swap in and check Commit's return against the full
			// path, then rebind the original baseline for the next probe.
			if c := surr.Commit(ta, tb); math.Float64bits(c) != math.Float64bits(sfull) {
				t.Fatalf("trial %d: Commit %x != swapped Cost %x", trial, math.Float64bits(c), math.Float64bits(sfull))
			}
			if _, err := surr.Reset(mp); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSurrogateFitDeterministic pins the calibration: a fixed (instance,
// seed, samples) triple always yields the same fit, and different seeds
// are allowed to differ (they sample different mappings).
func TestSurrogateFitDeterministic(t *testing.T) {
	mesh, g := deltaInstance(t, 3, 3, 8)
	cfg, tech := noc.Default(), energy.Tech007
	exact, err := NewCDCM(mesh, cfg, tech, g)
	if err != nil {
		t.Fatal(err)
	}
	a, err := fitSurrogate(mesh, cfg, tech, g, exact, 7, 12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fitSurrogate(mesh, cfg, tech, g, exact, 7, 12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a.A) != math.Float64bits(b.A) || math.Float64bits(a.B) != math.Float64bits(b.B) {
		t.Fatalf("same seed, different fits: %+v vs %+v", a, b)
	}
	if a.B < 0 {
		t.Fatalf("fitted slope is negative: %+v", a)
	}
}

// TestSurrogateSADeterministicAcrossWorkers is the tier-B acceptance
// gate: a surrogate-driven SA exploration is deterministic for every
// worker count, reports a Best whose cost a fresh exact evaluator
// reproduces bit for bit, and splits its evaluation counters so that
// Evaluations = ExactEvals + SurrogateEvals.
func TestSurrogateSADeterministicAcrossWorkers(t *testing.T) {
	mesh, g := deltaInstance(t, 3, 3, 8)
	cfg, tech := noc.Default(), energy.Tech007
	var ref *ExploreResult
	for workers := 1; workers <= 3; workers++ {
		res, err := Explore(StrategyCDCM, mesh, cfg, tech, g, Options{
			Method: MethodSA, Seed: 5, Surrogate: true, SurrogateSamples: 10,
			TempSteps: 12, MovesPerTemp: 20, Restarts: 3, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Search.SurrogateEvals == 0 {
			t.Fatalf("workers=%d: surrogate never priced a candidate", workers)
		}
		if res.Search.ExactEvals == 0 {
			t.Fatalf("workers=%d: no exact evaluations at all", workers)
		}
		if res.Search.BoundSkips != 0 {
			t.Fatalf("workers=%d: SA reports %d bound skips; tier A is hill/tabu only",
				workers, res.Search.BoundSkips)
		}
		checkTierSum(t, fmt.Sprintf("workers=%d", workers), res.Search)
		fresh, err := NewCDCM(mesh, cfg, tech, g)
		if err != nil {
			t.Fatal(err)
		}
		m, err := fresh.Evaluate(res.Best)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(m.Total()) != math.Float64bits(res.Search.BestCost) {
			t.Fatalf("workers=%d: BestCost %x is not the exact price %x — a surrogate value leaked",
				workers, math.Float64bits(res.Search.BestCost), math.Float64bits(m.Total()))
		}
		if ref == nil {
			ref = res
			continue
		}
		if !mapping.Equal(ref.Best, res.Best) ||
			math.Float64bits(ref.Search.BestCost) != math.Float64bits(res.Search.BestCost) ||
			ref.Search.Evaluations != res.Search.Evaluations ||
			ref.Search.ExactEvals != res.Search.ExactEvals ||
			ref.Search.SurrogateEvals != res.Search.SurrogateEvals {
			t.Fatalf("workers=%d diverges from workers=1: (%v, %g, %d/%d/%d) vs (%v, %g, %d/%d/%d)",
				workers, res.Best, res.Search.BestCost, res.Search.Evaluations,
				res.Search.ExactEvals, res.Search.SurrogateEvals,
				ref.Best, ref.Search.BestCost, ref.Search.Evaluations,
				ref.Search.ExactEvals, ref.Search.SurrogateEvals)
		}
	}
}

// TestSurrogateParetoFrontExact is tier B's front-side acceptance gate:
// a surrogate-driven Pareto exploration stays deterministic across worker
// counts and every returned front point carries exact components — a
// fresh CDCM reproduces them bit for bit.
func TestSurrogateParetoFrontExact(t *testing.T) {
	mesh, g := deltaInstance(t, 3, 3, 8)
	cfg, tech := noc.Default(), energy.Tech007
	var ref *ExploreResult
	for workers := 1; workers <= 2; workers++ {
		res, err := Explore(StrategyPareto, mesh, cfg, tech, g, Options{
			Seed: 9, Surrogate: true, SurrogateSamples: 10,
			TempSteps: 10, MovesPerTemp: 15, Restarts: 2, FrontSize: 8, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		front := res.Front
		if front.SurrogateEvals == 0 {
			t.Fatalf("workers=%d: surrogate never priced a candidate", workers)
		}
		if got := front.ExactEvals + front.SurrogateEvals; got != front.Evaluations {
			t.Fatalf("workers=%d: front counters sum to %d, Evaluations is %d",
				workers, got, front.Evaluations)
		}
		checkTierSum(t, fmt.Sprintf("pareto workers=%d", workers), res.Search)
		fresh, err := NewCDCM(mesh, cfg, tech, g)
		if err != nil {
			t.Fatal(err)
		}
		comps := make([]float64, len(front.Axes))
		for i, p := range front.Points {
			if err := fresh.ComponentsInto(p.Mapping, comps); err != nil {
				t.Fatal(err)
			}
			for a := range comps {
				if math.Float64bits(comps[a]) != math.Float64bits(p.Components[a]) {
					t.Fatalf("workers=%d point %d axis %s: archived %x != exact %x — a surrogate component leaked",
						workers, i, front.Axes[a], math.Float64bits(p.Components[a]), math.Float64bits(comps[a]))
				}
			}
		}
		if ref == nil {
			ref = res
			continue
		}
		rf := ref.Front
		if len(rf.Points) != len(front.Points) {
			t.Fatalf("workers=%d: front size %d != workers=1 size %d", workers, len(front.Points), len(rf.Points))
		}
		for i := range front.Points {
			if !mapping.Equal(rf.Points[i].Mapping, front.Points[i].Mapping) ||
				math.Float64bits(rf.Points[i].Cost) != math.Float64bits(front.Points[i].Cost) {
				t.Fatalf("workers=%d: front point %d diverges from workers=1", workers, i)
			}
		}
		if !mapping.Equal(ref.Best, res.Best) {
			t.Fatalf("workers=%d: best %v != workers=1 best %v", workers, res.Best, ref.Best)
		}
	}
}

// TestSurrogateIgnoredWhereInapplicable pins the Options.Surrogate
// contract: the flag is a no-op — bit for bit — for the engines that
// cannot use it (hill/tabu, which carry tier A instead, and CWM runs).
func TestSurrogateIgnoredWhereInapplicable(t *testing.T) {
	mesh, g := deltaInstance(t, 3, 3, 8)
	cfg, tech := noc.Default(), energy.Tech007
	for _, tc := range []struct {
		name  string
		strat Strategy
		mth   Method
	}{
		{"cdcm-hill", StrategyCDCM, MethodHill},
		{"cdcm-tabu", StrategyCDCM, MethodTabu},
		{"cwm-sa", StrategyCWM, MethodSA},
	} {
		opts := Options{Method: tc.mth, Seed: 3, TempSteps: 8, MovesPerTemp: 10}
		plain, err := Explore(tc.strat, mesh, cfg, tech, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Surrogate = true
		flagged, err := Explore(tc.strat, mesh, cfg, tech, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !mapping.Equal(plain.Best, flagged.Best) ||
			math.Float64bits(plain.Search.BestCost) != math.Float64bits(flagged.Search.BestCost) ||
			plain.Search.Evaluations != flagged.Search.Evaluations ||
			flagged.Search.SurrogateEvals != 0 {
			t.Fatalf("%s: Surrogate flag changed the run", tc.name)
		}
	}
}

// TestExploreHillTabuUsesBound pins the Explore wiring: CDCM hill/tabu
// runs attach the tier-A cutoff (BoundSkips > 0) and still reproduce the
// bare-engine trajectory bit for bit.
func TestExploreHillTabuUsesBound(t *testing.T) {
	mesh, g := deltaInstance(t, 3, 3, 8)
	cfg, tech := noc.Default(), energy.Tech007
	cdcm, err := NewCDCM(mesh, cfg, tech, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, mth := range []Method{MethodHill, MethodTabu} {
		res, err := Explore(StrategyCDCM, mesh, cfg, tech, g, Options{Method: mth, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		if res.Search.BoundSkips == 0 {
			t.Fatalf("%v: Explore did not attach the tier-A cutoff", mth)
		}
		checkTierSum(t, mth.String(), res.Search)
		prob := search.Problem{Mesh: mesh, NumCores: g.NumCores(), Obj: cdcm.Clone()}
		var bare *search.Result
		if mth == MethodHill {
			bare, err = (&search.HillClimber{Problem: prob, Seed: 13}).Run()
		} else {
			bare, err = (&search.Tabu{Problem: prob, Seed: 13}).Run()
		}
		if err != nil {
			t.Fatal(err)
		}
		if !mapping.Equal(bare.Best, res.Best) ||
			math.Float64bits(bare.BestCost) != math.Float64bits(res.Search.BestCost) ||
			bare.Evaluations != res.Search.Evaluations {
			t.Fatalf("%v: Explore run diverges from bare engine", mth)
		}
	}
}

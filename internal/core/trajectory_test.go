package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/search"
	"repro/internal/topology"
)

// trajectoryPin is the absolute outcome of one engine run: the winner,
// the bits of its cost, every evaluation counter, and the walk's last
// progress snapshot. Front runs also pin the size of the front and the
// bits of every point's cost.
type trajectoryPin struct {
	Best                string
	CostBits            uint64
	Evals, Exact, Skips int64
	Surr, Improvements  int64
	Snapshots           int
	Accepted, Rejected  int64
	FrontBits           []uint64
}

func (p trajectoryPin) String() string {
	s := fmt.Sprintf("{Best: %q, CostBits: %#x, Evals: %d, Exact: %d, Skips: %d, Surr: %d, Improvements: %d, Snapshots: %d, Accepted: %d, Rejected: %d",
		p.Best, p.CostBits, p.Evals, p.Exact, p.Skips, p.Surr, p.Improvements, p.Snapshots, p.Accepted, p.Rejected)
	if p.FrontBits != nil {
		s += ", FrontBits: []uint64{"
		for i, b := range p.FrontBits {
			if i > 0 {
				s += ", "
			}
			s += fmt.Sprintf("%#x", b)
		}
		s += "}"
	}
	return s + "}"
}

// TestEngineTrajectoryPins pins absolute outcomes of every move engine
// under every pricing tier — full, CWM swap delta, tier-A simulation
// cutoff, tier-B surrogate, reheating — plus the front engine and both
// exhaustive engines. The other bit-identity tests are relative (bound
// against bare, delta against full, one worker against many), so a
// change that moves both sides the same way passes them; these values
// pass only while every RNG draw and float operation of each walk stays
// where it is.
func TestEngineTrajectoryPins(t *testing.T) {
	grid := tieredGrids(t)[0] // 10 cores on a 4x3 mesh
	cfg, tech := tieredCfg(), energy.Tech007
	cdcm, err := NewCDCM(grid.mesh, cfg, tech, grid.g)
	if err != nil {
		t.Fatal(err)
	}
	tieredCDCM := func() search.Objective {
		lane := cdcm.Clone()
		return &search.TieredObjective{Exact: lane, Cutoff: lane}
	}
	cwm := func() search.Objective {
		c, err := NewCWM(grid.mesh, cfg, tech, grid.g.ToCWG())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	prob := func(obj search.Objective) search.Problem {
		return search.Problem{Mesh: grid.mesh, NumCores: grid.g.NumCores(), Obj: obj}
	}
	// Exhaustive search needs a space it can finish: the paper's 4-core
	// example on the same 4x3 mesh (11880 placements).
	esMesh, err := topology.NewMesh(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	esApp := model.PaperExampleCDCG()
	esCDCM, err := NewCDCM(esMesh, noc.PaperExample(), energy.PaperExample(), esApp)
	if err != nil {
		t.Fatal(err)
	}

	explore := func(strategy Strategy, opts Options) func(search.ProgressFunc) (*search.Result, *search.FrontResult, error) {
		return func(onProgress search.ProgressFunc) (*search.Result, *search.FrontResult, error) {
			opts.OnProgress = onProgress
			res, err := Explore(strategy, grid.mesh, cfg, tech, grid.g, opts)
			if err != nil {
				return nil, nil, err
			}
			return res.Search, res.Front, nil
		}
	}
	engine := func(run func(search.ProgressFunc) (*search.Result, error)) func(search.ProgressFunc) (*search.Result, *search.FrontResult, error) {
		return func(onProgress search.ProgressFunc) (*search.Result, *search.FrontResult, error) {
			res, err := run(onProgress)
			return res, nil, err
		}
	}
	sa := Options{Method: MethodSA, Seed: 5, TempSteps: 8, MovesPerTemp: 20}
	saReheat := Options{Method: MethodSA, Seed: 5, TempSteps: 40, MovesPerTemp: 20, StallSteps: 2, Reheats: 3}
	saSurr := sa
	saSurr.Surrogate, saSurr.SurrogateSamples, saSurr.StallSteps, saSurr.Reheats = true, 8, 2, 1
	pareto := Options{Seed: 9, TempSteps: 6, MovesPerTemp: 10}
	paretoSurr := pareto
	paretoSurr.Surrogate, paretoSurr.SurrogateSamples = true, 8

	cases := []struct {
		name string
		run  func(search.ProgressFunc) (*search.Result, *search.FrontResult, error)
		want trajectoryPin
	}{
		{"sa/cdcm-full", explore(StrategyCDCM, sa),
			trajectoryPin{Best: "[c0>t1 c1>t8 c2>t12 c3>t11 c4>t4 c5>t3 c6>t6 c7>t7 c8>t5 c9>t2]", CostBits: 0x3e73b2710081684e, Evals: 201, Exact: 201, Skips: 0, Surr: 0, Improvements: 7, Snapshots: 8, Accepted: 149, Rejected: 11}},
		{"sa/cwm-delta", explore(StrategyCWM, sa),
			trajectoryPin{Best: "[c0>t2 c1>t10 c2>t3 c3>t8 c4>t9 c5>t5 c6>t6 c7>t11 c8>t7 c9>t12]", CostBits: 0x3e67c674e18e6d35, Evals: 201, Exact: 201, Skips: 0, Surr: 0, Improvements: 9, Snapshots: 8, Accepted: 151, Rejected: 9}},
		{"sa/cdcm-surrogate", explore(StrategyCDCM, saSurr),
			trajectoryPin{Best: "[c0>t2 c1>t7 c2>t12 c3>t5 c4>t11 c5>t9 c6>t6 c7>t8 c8>t10 c9>t1]", CostBits: 0x3e733232d0f3f0b3, Evals: 350, Exact: 150, Skips: 0, Surr: 200, Improvements: 8, Snapshots: 8, Accepted: 149, Rejected: 11}},
		{"sa/cwm-reheat", explore(StrategyCWM, saReheat),
			trajectoryPin{Best: "[c0>t11 c1>t7 c2>t4 c3>t5 c4>t3 c5>t1 c6>t6 c7>t2 c8>t10 c9>t9]", CostBits: 0x3e67e53e2e307d8f, Evals: 281, Exact: 281, Skips: 0, Surr: 0, Improvements: 9, Snapshots: 12, Accepted: 196, Rejected: 44}},
		{"sa/cdcm-reheat", explore(StrategyCDCM, saReheat),
			trajectoryPin{Best: "[c0>t12 c1>t7 c2>t1 c3>t11 c4>t4 c5>t3 c6>t6 c7>t8 c8>t2 c9>t5]", CostBits: 0x3e7271e4d7c172cc, Evals: 241, Exact: 241, Skips: 0, Surr: 0, Improvements: 8, Snapshots: 10, Accepted: 159, Rejected: 41}},
		{"hill/cdcm-bare", engine(func(p search.ProgressFunc) (*search.Result, error) {
			return (&search.HillClimber{Problem: prob(cdcm.Clone()), Seed: 7, Restarts: 2, OnProgress: p}).Run()
		}),
			trajectoryPin{Best: "[c0>t2 c1>t12 c2>t5 c3>t11 c4>t8 c5>t7 c6>t10 c7>t3 c8>t6 c9>t9]", CostBits: 0x3e72698b6466a382, Evals: 847, Exact: 847, Skips: 0, Surr: 0, Improvements: 1, Snapshots: 11, Accepted: 11, Rejected: 769}},
		{"hill/cdcm-bound", engine(func(p search.ProgressFunc) (*search.Result, error) {
			return (&search.HillClimber{Problem: prob(tieredCDCM()), Seed: 7, Restarts: 2, OnProgress: p}).Run()
		}),
			trajectoryPin{Best: "[c0>t2 c1>t12 c2>t5 c3>t11 c4>t8 c5>t7 c6>t10 c7>t3 c8>t6 c9>t9]", CostBits: 0x3e72698b6466a382, Evals: 847, Exact: 361, Skips: 486, Surr: 0, Improvements: 1, Snapshots: 11, Accepted: 11, Rejected: 769}},
		{"hill/cwm-delta", engine(func(p search.ProgressFunc) (*search.Result, error) {
			return (&search.HillClimber{Problem: prob(cwm()), Seed: 7, OnProgress: p}).Run()
		}),
			trajectoryPin{Best: "[c0>t2 c1>t7 c2>t5 c3>t6 c4>t8 c5>t12 c6>t10 c7>t3 c8>t11 c9>t9]", CostBits: 0x3e65b26723cd2896, Evals: 1238, Exact: 1238, Skips: 0, Surr: 0, Improvements: 1, Snapshots: 16, Accepted: 16, Rejected: 1154}},
		{"tabu/cdcm-bare", engine(func(p search.ProgressFunc) (*search.Result, error) {
			return (&search.Tabu{Problem: prob(cdcm.Clone()), Seed: 7, Iterations: 12, OnProgress: p}).Run()
		}),
			trajectoryPin{Best: "[c0>t2 c1>t12 c2>t5 c3>t11 c4>t8 c5>t7 c6>t10 c7>t3 c8>t6 c9>t9]", CostBits: 0x3e72698b6466a382, Evals: 781, Exact: 781, Skips: 0, Surr: 0, Improvements: 6, Snapshots: 12, Accepted: 12, Rejected: 768}},
		{"tabu/cdcm-bound", engine(func(p search.ProgressFunc) (*search.Result, error) {
			return (&search.Tabu{Problem: prob(tieredCDCM()), Seed: 7, Iterations: 12, OnProgress: p}).Run()
		}),
			trajectoryPin{Best: "[c0>t2 c1>t12 c2>t5 c3>t11 c4>t8 c5>t7 c6>t10 c7>t3 c8>t6 c9>t9]", CostBits: 0x3e72698b6466a382, Evals: 781, Exact: 336, Skips: 445, Surr: 0, Improvements: 6, Snapshots: 12, Accepted: 12, Rejected: 768}},
		{"tabu/cwm-delta", engine(func(p search.ProgressFunc) (*search.Result, error) {
			return (&search.Tabu{Problem: prob(cwm()), Seed: 7, Iterations: 60, OnProgress: p}).Run()
		}),
			trajectoryPin{Best: "[c0>t2 c1>t7 c2>t9 c3>t5 c4>t12 c5>t11 c6>t6 c7>t8 c8>t10 c9>t3]", CostBits: 0x3e65691ed528a553, Evals: 3901, Exact: 3901, Skips: 0, Surr: 0, Improvements: 9, Snapshots: 60, Accepted: 60, Rejected: 3840}},
		{"pareto/plain", explore(StrategyPareto, pareto),
			trajectoryPin{Best: "[c0>t10 c1>t4 c2>t9 c3>t5 c4>t7 c5>t3 c6>t6 c7>t8 c8>t2 c9>t12]", CostBits: 0x3e7426671cbb9242, Evals: 707, Exact: 707, Skips: 0, Surr: 0, Improvements: 98, Snapshots: 42, Accepted: 58, Rejected: 2, FrontBits: []uint64{0x3e743115fe54ad70, 0x3e7426671cbb9242, 0x3e743e3e3183f314, 0x3e750cc619e85335}}},
		{"pareto/surrogate", explore(StrategyPareto, paretoSurr),
			trajectoryPin{Best: "[c0>t10 c1>t4 c2>t9 c3>t5 c4>t7 c5>t3 c6>t6 c7>t8 c8>t2 c9>t12]", CostBits: 0x3e7426671cbb9242, Evals: 1113, Exact: 413, Skips: 0, Surr: 700, Improvements: 83, Snapshots: 42, Accepted: 55, Rejected: 5, FrontBits: []uint64{0x3e7574a1e02b18f8, 0x3e743115fe54ad70, 0x3e7426671cbb9242, 0x3e7430d1bc5d3d58, 0x3e74d9608dac9977, 0x3e74c05cff68ec2f}}},
		{"es/serial", engine(func(p search.ProgressFunc) (*search.Result, error) {
			return (&search.Exhaustive{Problem: search.Problem{Mesh: esMesh, NumCores: esApp.NumCores(), Obj: esCDCM.Clone()},
				OnProgress: p}).Run()
		}),
			trajectoryPin{Best: "[c0>t1 c1>t3 c2>t5 c3>t2]", CostBits: 0x3dfca7f10b6bca46, Evals: 11880, Exact: 11880, Skips: 0, Surr: 0, Improvements: 5, Snapshots: 2, Accepted: 5, Rejected: 8187}},
		{"es/sharded", engine(func(p search.ProgressFunc) (*search.Result, error) {
			return (&search.ShardedExhaustive{Problem: search.Problem{Mesh: esMesh, NumCores: esApp.NumCores(), Obj: esCDCM},
				Anchor: true, Workers: 1, NewObjective: func() (search.Objective, error) { return esCDCM.Clone(), nil },
				OnProgress: p}).Run()
		}),
			trajectoryPin{Best: "[c0>t1 c1>t3 c2>t5 c3>t2]", CostBits: 0x3dfca7f10b6bca46, Evals: 3960, Exact: 3960, Skips: 0, Surr: 0, Improvements: 15, Snapshots: 0, Accepted: 0, Rejected: 0}},
	}
	for _, tc := range cases {
		var snaps int
		var last search.Progress
		res, front, err := tc.run(func(p search.Progress) { snaps++; last = p })
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := trajectoryPin{
			Best: fmt.Sprint(res.Best), CostBits: math.Float64bits(res.BestCost),
			Evals: res.Evaluations, Exact: res.ExactEvals, Skips: res.BoundSkips,
			Surr: res.SurrogateEvals, Improvements: res.Improvements,
			Snapshots: snaps, Accepted: last.Accepted, Rejected: last.Rejected,
		}
		if front != nil {
			got.FrontBits = make([]uint64, len(front.Points))
			for i, pt := range front.Points {
				got.FrontBits[i] = math.Float64bits(pt.Cost)
			}
		}
		if got.String() != tc.want.String() {
			t.Errorf("%s: trajectory moved\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

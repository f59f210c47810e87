package wormhole

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/topology"
)

// cloneResult deep-copies a (possibly scratch-backed) Result so it can be
// compared after later runs reuse the backing arrays.
func cloneResult(r *Result) *Result {
	c := *r
	c.Packets = append([]PacketSchedule(nil), r.Packets...)
	c.RouterBits = append([]int64(nil), r.RouterBits...)
	c.LinkBits = append([]int64(nil), r.LinkBits...)
	c.occ = nil
	return &c
}

func resultsEqual(a, b *Result) bool {
	return a.ExecCycles == b.ExecCycles &&
		a.CoreBits == b.CoreBits &&
		a.TSVBits == b.TSVBits &&
		a.TotalContention == b.TotalContention &&
		reflect.DeepEqual(a.Packets, b.Packets) &&
		reflect.DeepEqual(a.RouterBits, b.RouterBits) &&
		reflect.DeepEqual(a.LinkBits, b.LinkBits)
}

// scratchMesh builds one of the grids the equivalence suite sweeps: a
// planar mesh, a stacked 3-D mesh and a torus, so the scratch path is
// pinned against Run on every topology family.
func scratchMeshes(t *testing.T) []*topology.Mesh {
	t.Helper()
	m2, err := topology.NewMesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := topology.NewMesh3D(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	tor, err := topology.NewTorus(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	return []*topology.Mesh{m2, m3, tor}
}

// TestRunScratchMatchesRun pins the scratch fast path against Run
// schedule-for-schedule: every field of every PacketSchedule and every
// traffic aggregate must be identical, across 2-D/3-D/torus grids and
// both buffer policies.
func TestRunScratchMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, mesh := range scratchMeshes(t) {
		for _, bounded := range []bool{false, true} {
			cfg := noc.Default()
			if mesh.D() > 1 {
				cfg.Routing = topology.RouteXYZ
				cfg.TSVLinkCycles = 3
			}
			if bounded {
				cfg.Buffers = noc.BuffersBounded
				cfg.BufferFlits = 2
			}
			nc := 2 + rng.Intn(mesh.NumTiles()-1)
			g := randomValidCDCG(rng, nc, 30)
			ref, err := NewSimulator(mesh, cfg, g)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := NewSimulator(mesh, cfg, g)
			if err != nil {
				t.Fatal(err)
			}
			sc := sim.NewScratch()
			for trial := 0; trial < 20; trial++ {
				mp, err := mapping.Random(rng, nc, mesh.NumTiles())
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Run(mp)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sim.RunScratch(mp, sc)
				if err != nil {
					t.Fatal(err)
				}
				if !resultsEqual(want, got) {
					t.Fatalf("mesh %dx%dx%d bounded=%v trial %d: scratch result diverged",
						mesh.W(), mesh.H(), mesh.D(), bounded, trial)
				}
			}
		}
	}
}

// TestRunScratchResultReused pins the documented aliasing contract: the
// Result returned by RunScratch is backed by the scratch and overwritten
// by the next run with that scratch.
func TestRunScratchResultReused(t *testing.T) {
	mesh, _ := topology.NewMesh(2, 2)
	sim, err := NewSimulator(mesh, noc.PaperExample(), model.PaperExampleCDCG())
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.NewScratch()
	a, err := sim.RunScratch(paperMappingA, sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.RunScratch(paperMappingA, sc)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("RunScratch allocated a fresh Result instead of reusing the scratch's")
	}
	if &a.Packets[0] != &b.Packets[0] {
		t.Fatal("RunScratch reallocated the Packets backing array")
	}
}

// TestRunScratchSteadyStateZeroAllocs is the headline allocation test of
// the scratch subsystem: after warmup, a full CDCM wormhole simulation
// performs zero heap allocations.
func TestRunScratchSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mesh, _ := topology.NewMesh(4, 4)
	g := randomValidCDCG(rng, 9, 60)
	sim, err := NewSimulator(mesh, noc.Default(), g)
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.NewScratch()
	mps := make([]mapping.Mapping, 8)
	for i := range mps {
		if mps[i], err = mapping.Random(rng, 9, 16); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the scratch: grow every interval list, the heap and the hop
	// plan to their steady-state capacity.
	for range 4 {
		for _, mp := range mps {
			if _, err := sim.RunScratch(mp, sc); err != nil {
				t.Fatal(err)
			}
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(64, func() {
		mp := mps[i%len(mps)]
		i++
		if _, err := sim.RunScratch(mp, sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("RunScratch steady state allocates %.1f objects/run, want 0", allocs)
	}
	// The cutoff run, cut at every stage: before the first packet,
	// part-way (at the mapping's own texec), and never.
	limits := make([][3]*fixedLimit, len(mps))
	for j, mp := range mps {
		res, err := sim.RunScratch(mp, sc)
		if err != nil {
			t.Fatal(err)
		}
		limits[j] = [3]*fixedLimit{{limit: 0}, {limit: res.ExecCycles}, {limit: math.MaxInt64}}
	}
	allocs = testing.AllocsPerRun(64, func() {
		mp := mps[i%len(mps)]
		lim := limits[i%len(mps)][i%3]
		i++
		if _, _, err := sim.RunCutoff(mp, sc, lim); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("RunCutoff steady state allocates %.1f objects/run, want 0", allocs)
	}
}

// fixedLimit is a Limiter with a constant limit that records the traffic
// it was asked about.
type fixedLimit struct {
	limit   int64
	traffic Traffic
}

func (l *fixedLimit) Limit(t Traffic) int64 {
	l.traffic = t
	return l.limit
}

// critPath is an oracle for the cutoff's starting bound: the longest
// chain of the dependence DAG, each packet weighted by its computation
// time plus its contention-free network time, with routes and TSV hops
// taken from the mesh rather than from the simulator's compiled tables.
func critPath(t *testing.T, mesh *topology.Mesh, cfg noc.Config, g *model.CDCG, mp mapping.Mapping) int64 {
	t.Helper()
	dg, err := g.DepGraph()
	if err != nil {
		t.Fatal(err)
	}
	finish := make([]int64, g.NumPackets())
	done := make([]bool, g.NumPackets())
	var visit func(p int) int64
	visit = func(p int) int64 {
		if done[p] {
			return finish[p]
		}
		var ready int64
		for _, q := range dg.Pred(p) {
			ready = max(ready, visit(q))
		}
		pkt := g.Packets[p]
		r, err := mesh.Route(cfg.Routing, mp[pkt.Src], mp[pkt.Dst])
		if err != nil {
			t.Fatal(err)
		}
		k, v := int64(r.K()), int64(mesh.VerticalHops(mp[pkt.Src], mp[pkt.Dst]))
		tl := cfg.LinkCycles
		finish[p] = ready + pkt.Compute + k*(cfg.RoutingCycles+tl) + v*(cfg.TSVCycles()-tl) + cfg.Flits(pkt.Bits)*tl
		done[p] = true
		return finish[p]
	}
	var lp int64
	for p := range g.Packets {
		lp = max(lp, visit(p))
	}
	return lp
}

// TestRunCutoffCutsExactlyAtLimit pins the cutoff's contract against a
// full run, across 2-D/3-D/torus grids and both buffer policies: a run
// is cut iff its texec reaches the limit, cut before its first packet iff
// the critical path does, handed the full run's traffic totals, and an
// uncut run returns RunScratch's result schedule for schedule.
func TestRunCutoffCutsExactlyAtLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, mesh := range scratchMeshes(t) {
		for _, bounded := range []bool{false, true} {
			cfg := noc.Default()
			if mesh.D() > 1 {
				cfg.Routing = topology.RouteXYZ
				cfg.TSVLinkCycles = 3
			}
			if bounded {
				cfg.Buffers = noc.BuffersBounded
				cfg.BufferFlits = 2
			}
			nc := 2 + rng.Intn(mesh.NumTiles()-1)
			g := randomValidCDCG(rng, nc, 30)
			sim, err := NewSimulator(mesh, cfg, g)
			if err != nil {
				t.Fatal(err)
			}
			sc, ref := sim.NewScratch(), sim.NewScratch()
			cuts := 0
			for trial := 0; trial < 10; trial++ {
				name := fmt.Sprintf("mesh %dx%dx%d bounded=%v trial %d", mesh.W(), mesh.H(), mesh.D(), bounded, trial)
				mp, err := mapping.Random(rng, nc, mesh.NumTiles())
				if err != nil {
					t.Fatal(err)
				}
				full, err := sim.RunScratch(mp, ref)
				if err != nil {
					t.Fatal(err)
				}
				want := cloneResult(full)
				traffic := Traffic{CoreBits: want.CoreBits, TSVBits: want.TSVBits}
				for _, b := range want.RouterBits {
					traffic.RouterBits += b
				}
				for _, b := range want.LinkBits {
					traffic.LinkBits += b
				}
				exec, lp := want.ExecCycles, critPath(t, mesh, cfg, g, mp)
				if lp > exec {
					t.Fatalf("%s: critical path %d exceeds texec %d", name, lp, exec)
				}
				for _, limit := range []int64{0, lp - 1, lp, lp + 1, exec - 1, exec, exec + 1, math.MaxInt64} {
					lim := fixedLimit{limit: limit}
					res, simulated, err := sim.RunCutoff(mp, sc, &lim)
					if err != nil {
						t.Fatal(err)
					}
					if lim.traffic != traffic {
						t.Fatalf("%s: limiter saw traffic %+v, the run has %+v", name, lim.traffic, traffic)
					}
					switch {
					case limit <= lp:
						if res != nil || simulated != 0 {
							t.Fatalf("%s limit %d: want a cut before the first packet (critical path %d), got result %v after %d packets",
								name, limit, lp, res != nil, simulated)
						}
					case limit <= exec:
						cuts++
						if res != nil || simulated == 0 {
							t.Fatalf("%s limit %d: want a cut part-way (texec %d), got result %v after %d packets",
								name, limit, exec, res != nil, simulated)
						}
					default:
						if res == nil || simulated != g.NumPackets() || !resultsEqual(want, res) {
							t.Fatalf("%s limit %d: uncut run (texec %d) diverged from RunScratch", name, limit, exec)
						}
					}
				}
			}
			if cuts == 0 {
				t.Fatalf("mesh %dx%dx%d bounded=%v: no run was cut part-way", mesh.W(), mesh.H(), mesh.D(), bounded)
			}
		}
	}
}

// TestScratchConcurrentClonesMatchSequential races N scratches over a
// shared simulator (the parallel search engines' configuration) and
// requires every concurrent schedule to match the sequential Run result
// field for field. Run with -race in CI.
func TestScratchConcurrentClonesMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	mesh, _ := topology.NewMesh3D(2, 2, 2)
	cfg := noc.Default()
	cfg.Routing = topology.RouteXYZ
	g := randomValidCDCG(rng, 6, 50)
	seq, err := NewSimulator(mesh, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewSimulator(mesh, cfg, g)
	if err != nil {
		t.Fatal(err)
	}

	const nMaps = 64
	mps := make([]mapping.Mapping, nMaps)
	want := make([]*Result, nMaps)
	for i := range mps {
		if mps[i], err = mapping.Random(rng, 6, 8); err != nil {
			t.Fatal(err)
		}
		res, err := seq.Run(mps[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	const workers = 8
	got := make([]*Result, nMaps)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := shared.NewScratch()
			for i := w; i < nMaps; i += workers {
				res, err := shared.RunScratch(mps[i], sc)
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = cloneResult(res)
			}
		}(w)
	}
	wg.Wait()
	for i := range want {
		if got[i] == nil || !resultsEqual(want[i], got[i]) {
			t.Fatalf("mapping %d: concurrent scratch schedule diverged from sequential Run", i)
		}
	}
}

// TestRunFreshIndependentResult pins RunFresh's contract: same schedule
// as RunScratch, but the Result survives later runs on the same scratch.
func TestRunFreshIndependentResult(t *testing.T) {
	mesh, _ := topology.NewMesh(2, 2)
	sim, err := NewSimulator(mesh, noc.PaperExample(), model.PaperExampleCDCG())
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.NewScratch()
	fresh, err := sim.RunFresh(paperMappingA, sc)
	if err != nil {
		t.Fatal(err)
	}
	keep := cloneResult(fresh)
	other := mapping.Mapping{0, 1, 2, 3}
	if _, err := sim.RunScratch(other, sc); err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(keep, fresh) {
		t.Fatal("RunFresh result mutated by a later run on the same scratch")
	}
	via, err := sim.RunScratch(paperMappingA, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(via, fresh) {
		t.Fatal("RunFresh schedule diverged from RunScratch")
	}
}

func TestRunScratchRejectsForeignScratch(t *testing.T) {
	mesh, _ := topology.NewMesh(2, 2)
	g := model.PaperExampleCDCG()
	a, err := NewSimulator(mesh, noc.PaperExample(), g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSimulator(mesh, noc.PaperExample(), g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.RunScratch(paperMappingA, b.NewScratch()); err == nil {
		t.Fatal("scratch from another simulator accepted")
	}
	if _, err := a.RunScratch(paperMappingA, nil); err == nil {
		t.Fatal("nil scratch accepted")
	}
	if _, err := a.RunFresh(paperMappingA, b.NewScratch()); err == nil {
		t.Fatal("RunFresh: scratch from another simulator accepted")
	}
	var zero Simulator
	if _, err := zero.RunScratch(paperMappingA, nil); err == nil {
		t.Fatal("zero-value simulator accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewScratch on zero-value simulator did not panic")
		}
	}()
	zero.NewScratch()
}

// TestScratchRecordOccupancy checks the per-scratch recording flag: off
// by default (search lanes), on it produces the same occupancies Run
// records via Simulator.RecordOccupancy.
func TestScratchRecordOccupancy(t *testing.T) {
	mesh, _ := topology.NewMesh(2, 2)
	g := model.PaperExampleCDCG()
	ref := newPaperSim(t, true)
	want, err := ref.Run(paperMappingA)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(mesh, noc.PaperExample(), g)
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.NewScratch()
	res, err := sim.RunScratch(paperMappingA, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Occupancies(KindRouter, 0) != nil {
		t.Fatal("scratch run recorded occupancies without the flag")
	}
	sc.RecordOccupancy = true
	res, err = sim.RunScratch(paperMappingA, sc)
	if err != nil {
		t.Fatal(err)
	}
	for tile := 0; tile < 4; tile++ {
		for _, kind := range []ResourceKind{KindRouter, KindCoreOut, KindCoreIn} {
			if !reflect.DeepEqual(res.Occupancies(kind, tile), want.Occupancies(kind, tile)) {
				t.Fatalf("%s occupancies of tile %d diverged from the recording Run", kind, tile)
			}
		}
	}
}

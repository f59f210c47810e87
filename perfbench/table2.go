package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/exp"
	"repro/internal/mapping"
	"repro/internal/noc"
)

const (
	// table2MaxTiles keeps the Table-1 instances on 3x2 … 3x4 NoCs.
	table2MaxTiles = 12
	// table2MinPasses is the number of passes over the instances every
	// run completes; texec_cycles and energy_uj average exactly these.
	table2MinPasses = 3
	table2TailPct   = 75
)

// table2ProtocolSeeds are the SA seeds of the untimed exp.RunTable2 run
// that gives etr_pct and ecs_pct: the protocol's default, as in
// `nocexp -exp table2`. A single comparison's ETR and ECS take a few
// discrete values per instance, so their mean over the 15 instances moves
// by a quarter from one SA seed to the next; fixing the protocol seed
// makes the paper's two numbers exact, deterministic functions of the code.
var table2ProtocolSeeds = []int64{1}

var table2Techs = []energy.Tech{energy.Tech035, energy.Tech007}

// table2Options is exp.RunTable2's annealing schedule for NoCs of at most
// 25 tiles, so that each timed comparison is one row of the paper's
// protocol; crossCheckTable2 verifies the match.
func table2Options(tiles int, seed int64) core.Options {
	return core.Options{Method: core.MethodSA, Seed: seed,
		TempSteps: 140, MovesPerTemp: 20 * tiles, StallSteps: 25, Reheats: 2}
}

type t2job struct {
	inst   int
	cmp    *core.Comparison
	clock  *phaseClock
	traced bool
}

// runTable2 is the paper's Table-2 protocol (CWM-SA against CDCM-SA,
// priced under 0.35 µm and 0.07 µm) over the Table-1 instances with at
// most 12 tiles. One job is one core.CompareModels comparison; pass p
// runs every instance once under the SA seed derived from (seed, p).
func runTable2(e *env) (*outcome, error) {
	o := newOutcome()
	cfg := noc.Default()
	setup, suite, err := medianSetup(31, time.Second, func() ([]exp.Workload, error) {
		all, err := exp.Table1Suite()
		if err != nil {
			return nil, err
		}
		var small []exp.Workload
		for _, w := range all {
			if w.MeshW*w.MeshH > table2MaxTiles {
				continue
			}
			mesh, err := w.Mesh()
			if err != nil {
				return nil, err
			}
			if _, err := core.NewCDCM(mesh, cfg, energy.Tech007, w.G); err != nil {
				return nil, err
			}
			if _, err := core.NewCWM(mesh, cfg, energy.Tech007, w.G.ToCWG()); err != nil {
				return nil, err
			}
			small = append(small, w)
		}
		return small, nil
	})
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setup
	o.notes["peak_rss_after_setup_mb"] = peakRSSMB()
	n := len(suite)

	var mu sync.Mutex
	jobs := map[int]*t2job{}
	mem0 := readMem()
	samples, wall := e.closedLoop(n, table2MinPasses, func(i int, traced bool) error {
		j := &t2job{inst: i % n, traced: traced}
		w := suite[j.inst]
		mesh, err := w.Mesh()
		if err != nil {
			return err
		}
		var tr *tracer
		if traced {
			tr = e.tr
		}
		id := fmt.Sprintf("t2-%d", i)
		root := tr.begin("exp.compare_models", id, 0)
		j.clock = newPhaseClock(tr, id, root)
		opts := table2Options(w.MeshW*w.MeshH, derive(e.seed, "table2", i/n))
		j.clock.hook(&opts, traced)
		j.cmp, err = core.CompareModels(mesh, cfg, w.G, core.CompareOptions{Options: opts, ReportTechs: table2Techs})
		j.clock.done()
		tr.end(root)
		mu.Lock()
		jobs[i] = j
		mu.Unlock()
		return err
	})
	mem1 := readMem()
	latencyMetrics(o, samples, wall, table2TailPct)
	o.e2e["peak_rss_mb"] = peakRSSMB()

	checkTable2(o, suite, jobs)

	// Quality: the CDCM winners of the first passes, which every run
	// completes, and the paper's Table-2 averages at the protocol seeds.
	var texec, energyUJ []float64
	for i := 0; i < table2MinPasses*n; i++ {
		if j := jobs[i]; j != nil && j.cmp != nil {
			m := j.cmp.CDCMMetrics[energy.Tech007.Name]
			texec = append(texec, float64(m.ExecCycles))
			energyUJ = append(energyUJ, m.Total()*1e6)
		}
	}
	o.e2e["texec_cycles"] = mean(texec)
	o.e2e["energy_uj"] = mean(energyUJ)
	rep, err := exp.RunTable2(suite, exp.Table2Options{
		Seeds: table2ProtocolSeeds, Workers: runtime.NumCPU(), Techs: table2Techs,
	})
	if err != nil {
		return nil, fmt.Errorf("exp.RunTable2: %w", err)
	}
	if err := crossCheckTable2(e, o, suite, rep); err != nil {
		return nil, err
	}
	o.e2e["etr_pct"] = rep.Average.ETR * 100
	o.e2e["ecs_pct"] = rep.Average.ECS[energy.Tech007.Name] * 100
	o.notes["quality"] = fmt.Sprintf("texec/energy: CDCM winners (0.07um) of the first %d passes (%d comparisons); "+
		"etr/ecs: exp.RunTable2 average over SA seeds %v (%d comparisons), CDCM-SA against CWM-SA, ecs at 0.07um",
		table2MinPasses, len(texec), table2ProtocolSeeds, rep.Average.Runs)

	if e.traced {
		o.goMetrics(mem0, mem1, len(samples))
		if err := table2Layers(e, o, suite, jobs); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// checkTable2 validates every comparison: injective in-range mappings,
// reported texec and energy equal to a fresh CDCM reprice under each
// tech, and the evaluation split on every progress snapshot.
func checkTable2(o *outcome, suite []exp.Workload, jobs map[int]*t2job) {
	cfg := noc.Default()
	fresh := make([]*core.CDCM, len(suite))
	for k, w := range suite {
		mesh, _ := w.Mesh()
		fresh[k], _ = core.NewCDCM(mesh, cfg, energy.Tech007, w.G) // built in set-up already
	}
	for i, j := range jobs {
		if j.cmp == nil {
			continue
		}
		w := suite[j.inst]
		tiles := w.MeshW * w.MeshH
		if j.clock.badSplit > 0 {
			o.problem(i, "job %d (%s): %d progress snapshots break Evaluations = Exact + Bound + Surrogate", i, w.Name, j.clock.badSplit)
		}
		if j.cmp.CWMEvaluations <= 0 || j.cmp.CDCMEvaluations <= 0 {
			o.problem(i, "job %d (%s): no evaluations reported", i, w.Name)
		}
		check := func(what string, mp mapping.Mapping, tech energy.Tech, m core.Metrics) {
			if p := checkMapping(mp, w.G.NumCores(), tiles); p != "" {
				o.problem(i, "job %d (%s) %s: %s", i, w.Name, what, p)
				return
			}
			if p := reprice(fresh[j.inst], mp, tech, m.ExecCycles, m.Total()); p != "" {
				o.problem(i, "job %d (%s) %s: %s", i, w.Name, what, p)
			}
		}
		for _, tech := range table2Techs {
			check("CWM winner", j.cmp.CWMMapping, tech, j.cmp.CWMMetrics[tech.Name])
			check("CDCM winner", j.cmp.CDCMMappings[tech.Name], tech, j.cmp.CDCMMetrics[tech.Name])
		}
	}
}

// crossCheckTable2 recomputes one exp.RunTable2 outcome (a seed-chosen
// instance at the first protocol seed) with the benchmark's own
// CompareModels call and budget; both must agree exactly.
func crossCheckTable2(e *env, o *outcome, suite []exp.Workload, rep *exp.Table2Report) error {
	k := int(e.seed % int64(len(suite)))
	w := suite[k]
	mesh, err := w.Mesh()
	if err != nil {
		return err
	}
	cmp, err := core.CompareModels(mesh, noc.Default(), w.G, core.CompareOptions{
		Options: table2Options(w.MeshW*w.MeshH, table2ProtocolSeeds[0]), ReportTechs: table2Techs,
	})
	if err != nil {
		return err
	}
	ref := energy.Tech007.Name
	for _, out := range rep.Outcomes {
		if out.Workload != w.Name || out.Seed != table2ProtocolSeeds[0] {
			continue
		}
		if out.ETR != cmp.ETR || out.ECS[ref] != cmp.ECS[ref] ||
			out.CWMExecCycles != cmp.CWMMetrics[ref].ExecCycles || out.CDCMExecCycles != cmp.CDCMMetrics[ref].ExecCycles {
			o.problem(-1, "%s: exp.RunTable2 outcome (ETR %g) differs from CompareModels with the benchmark budget (ETR %g)",
				w.Name, out.ETR, cmp.ETR)
		}
		return nil
	}
	o.problem(-1, "%s: missing from the exp.RunTable2 report", w.Name)
	return nil
}

// table2Layers reports the per-layer metrics of the traced jobs.
func table2Layers(e *env, o *outcome, suite []exp.Workload, jobs map[int]*t2job) error {
	cfg := noc.Default()
	insts := make([]simInstance, len(suite))
	for k, w := range suite {
		mesh, err := w.Mesh()
		if err != nil {
			return err
		}
		insts[k] = simInstance{mesh: mesh, cfg: cfg, g: w.G}
	}
	var traced []jobLayers
	for _, j := range jobs {
		if !j.traced || j.cmp == nil {
			continue
		}
		traced = append(traced, jobLayers{
			buildMS: j.clock.ms["build"], searchMS: j.clock.ms["search"], priceMS: j.clock.ms["price"],
			counts: j.clock.sum, sims: float64(j.cmp.CDCMEvaluations), inst: j.inst,
		})
		in := &insts[j.inst]
		if len(in.mps) < 8 {
			in.mps = append(in.mps, j.cmp.CWMMapping, j.cmp.CDCMMappings[energy.Tech007.Name])
		}
	}
	simUS, err := simLayer(o, insts, e.seed, 50*time.Millisecond)
	if err != nil {
		return err
	}
	searchLayers(o, traced, simUS)
	var sd []float64
	for k, in := range insts {
		ns, err := swapDeltaCost(in.mesh, cfg, energy.Tech007, in.g, derive(e.seed, "swapdelta", k), 20*time.Millisecond)
		if err != nil {
			return err
		}
		sd = append(sd, ns)
	}
	o.layer["core.cwm_swapdelta_ns"] = mean(sd)
	return nil
}

package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/exp"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/topology"
)

const (
	// cdcmSAQuality is the number of explorations every run completes;
	// the quality metrics average exactly these.
	cdcmSAQuality = 16
	// cdcmSAMinJobs leaves at least ten samples beyond the tail percentile.
	cdcmSAMinJobs = 100
	cdcmSATailPct = 90
	// randomRefs is the size of the seeded random-placement sample the
	// etr/ecs reference is priced on, outside table2-small.
	randomRefs = 256
)

// cdcmSAOptions is the large-instance tier-B budget: fast cooling keeps
// the low-acceptance phase long, where the surrogate saves simulations.
func cdcmSAOptions(seed int64) core.Options {
	return core.Options{Method: core.MethodSA, Seed: seed,
		TempSteps: 40, MovesPerTemp: 120, Alpha: 0.7,
		Surrogate: true, SurrogateSamples: 16}
}

type saJob struct {
	res    *core.ExploreResult
	clock  *phaseClock
	traced bool
}

// runCDCMSA explores tgff-12x10 (99 cores, 446 packets, 12x10 mesh) with
// CDCM simulated annealing and the tier-B surrogate, one exploration per
// seed derived from (seed, job index).
func runCDCMSA(e *env) (*outcome, error) {
	o := newOutcome()
	cfg := noc.Default()
	type instance struct {
		mesh *topology.Mesh
		g    *model.CDCG
	}
	setup, in, err := medianSetup(31, time.Second, func() (instance, error) {
		all, err := exp.Table1Suite()
		if err != nil {
			return instance{}, err
		}
		for _, w := range all {
			if w.Name != "tgff-12x10" {
				continue
			}
			mesh, err := w.Mesh()
			if err != nil {
				return instance{}, err
			}
			if _, err := core.NewCDCM(mesh, cfg, energy.Tech007, w.G); err != nil {
				return instance{}, err
			}
			return instance{mesh, w.G}, nil
		}
		return instance{}, fmt.Errorf("tgff-12x10 missing from exp.Table1Suite")
	})
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setup
	o.notes["peak_rss_after_setup_mb"] = peakRSSMB()

	var mu sync.Mutex
	jobs := map[int]*saJob{}
	mem0 := readMem()
	samples, wall := e.closedLoop(1, cdcmSAMinJobs, func(i int, traced bool) error {
		j := &saJob{traced: traced}
		var tr *tracer
		if traced {
			tr = e.tr
		}
		id := fmt.Sprintf("sa-%d", i)
		root := tr.begin("core.explore", id, 0)
		j.clock = newPhaseClock(tr, id, root)
		opts := cdcmSAOptions(derive(e.seed, "cdcm-sa", i))
		j.clock.hook(&opts, traced)
		var err error
		j.res, err = core.Explore(core.StrategyCDCM, in.mesh, cfg, energy.Tech007, in.g, opts)
		j.clock.done()
		tr.end(root)
		mu.Lock()
		jobs[i] = j
		mu.Unlock()
		return err
	})
	mem1 := readMem()
	latencyMetrics(o, samples, wall, cdcmSATailPct)
	o.e2e["peak_rss_mb"] = peakRSSMB()

	fresh, err := core.NewCDCM(in.mesh, cfg, energy.Tech007, in.g)
	if err != nil {
		return nil, err
	}
	for i, j := range jobs {
		if j.res == nil {
			continue
		}
		s := j.res.Search
		if p := checkMapping(j.res.Best, in.g.NumCores(), in.mesh.NumTiles()); p != "" {
			o.problem(i, "exploration %d: %s", i, p)
			continue
		}
		if p := reprice(fresh, j.res.Best, energy.Tech007, j.res.Metrics.ExecCycles, j.res.Metrics.Total()); p != "" {
			o.problem(i, "exploration %d: %s", i, p)
		}
		if s.Evaluations != s.ExactEvals+s.BoundSkips+s.SurrogateEvals || j.clock.badSplit > 0 {
			o.problem(i, "exploration %d: Evaluations %d != exact %d + bound %d + surrogate %d",
				i, s.Evaluations, s.ExactEvals, s.BoundSkips, s.SurrogateEvals)
		}
		if s.SurrogateEvals == 0 {
			o.problem(i, "exploration %d: tier-B surrogate never priced a candidate", i)
		}
	}

	var got []core.Metrics
	for i := 0; i < cdcmSAQuality; i++ {
		if j := jobs[i]; j != nil && j.res != nil {
			got = append(got, j.res.Metrics)
		}
	}
	ref, err := randomReference(fresh, derive(e.seed, "random-ref", 0), in.g.NumCores(), in.mesh.NumTiles())
	if err != nil {
		return nil, err
	}
	qualityVsRandom(o, got, []reference{ref})
	o.notes["quality"] = fmt.Sprintf("means over the first %d explorations; etr/ecs against the mean of %d seeded random placements",
		len(got), randomRefs)

	if e.traced {
		o.goMetrics(mem0, mem1, len(samples))
		inst := simInstance{mesh: in.mesh, cfg: cfg, g: in.g}
		var traced []jobLayers
		for _, j := range jobs {
			if !j.traced || j.res == nil {
				continue
			}
			s := j.res.Search
			counts := j.clock.sum
			counts.Evaluations, counts.ExactEvals, counts.BoundSkips, counts.SurrogateEvals =
				s.Evaluations, s.ExactEvals, s.BoundSkips, s.SurrogateEvals
			traced = append(traced, jobLayers{
				buildMS: j.clock.ms["build"], searchMS: j.clock.ms["search"], priceMS: j.clock.ms["price"],
				counts: counts, sims: float64(s.ExactEvals),
			})
			if len(inst.mps) < 8 {
				inst.mps = append(inst.mps, j.res.Best)
			}
		}
		simUS, err := simLayer(o, []simInstance{inst}, e.seed, 300*time.Millisecond)
		if err != nil {
			return nil, err
		}
		searchLayers(o, traced, simUS)
		ns, err := swapDeltaCost(in.mesh, cfg, energy.Tech007, in.g, derive(e.seed, "swapdelta", 0), 50*time.Millisecond)
		if err != nil {
			return nil, err
		}
		o.layer["core.cwm_swapdelta_ns"] = ns
	}
	return o, nil
}

// reference is the mean texec and energy of a random-placement sample.
type reference struct{ cycles, joules float64 }

// randomReference prices a seeded sample of random placements on c.
func randomReference(c *core.CDCM, seed int64, cores, tiles int) (reference, error) {
	mps, err := randomMappings(seed, randomRefs, cores, tiles)
	if err != nil {
		return reference{}, err
	}
	var r reference
	for _, mp := range mps {
		m, err := c.Evaluate(mp)
		if err != nil {
			return reference{}, err
		}
		r.cycles += float64(m.ExecCycles) / randomRefs
		r.joules += m.Total() / randomRefs
	}
	return r, nil
}

// qualityVsRandom sets texec_cycles and energy_uj to the means of got,
// and etr_pct / ecs_pct to the mean reduction of each result against its
// random-placement reference (refs[i], or refs[0] for a single instance).
func qualityVsRandom(o *outcome, got []core.Metrics, refs []reference) {
	var texec, uj, etr, ecs []float64
	for i, m := range got {
		ref := refs[0]
		if len(refs) > 1 {
			ref = refs[i]
		}
		texec = append(texec, float64(m.ExecCycles))
		uj = append(uj, m.Total()*1e6)
		etr = append(etr, 100*ratio(ref.cycles-float64(m.ExecCycles), ref.cycles))
		ecs = append(ecs, 100*ratio(ref.joules-m.Total(), ref.joules))
	}
	o.e2e["texec_cycles"] = mean(texec)
	o.e2e["energy_uj"] = mean(uj)
	o.e2e["etr_pct"] = mean(etr)
	o.e2e["ecs_pct"] = mean(ecs)
}

package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/search"
	"repro/internal/topology"
	"repro/internal/wormhole"
)

// phaseClock turns core.Explore's OnPhase callbacks into per-phase
// durations (and spans, when traced) and folds each search's final
// Progress snapshot into evaluation and accepted/rejected totals. A phase ends when the
// next one starts or when the job calls done. Its OnProgress hook also
// checks the evaluation-split invariant on every snapshot.
type phaseClock struct {
	tr      *tracer
	job     string
	parent  int
	cur     string
	curSpan int
	t       time.Time
	ms      map[string]float64

	last     search.Progress
	haveLast bool
	// sum folds the final snapshot of every search the job ran.
	sum      search.Progress
	badSplit int
}

func newPhaseClock(tr *tracer, job string, parent int) *phaseClock {
	return &phaseClock{tr: tr, job: job, parent: parent, ms: map[string]float64{}}
}

// hook attaches the clock to an exploration's options: progress always
// (it carries an output check), phases only on traced jobs.
func (p *phaseClock) hook(opts *core.Options, traced bool) {
	opts.OnProgress = p.onProgress
	if traced {
		opts.OnPhase = p.onPhase
	}
}

func (p *phaseClock) onPhase(name string) {
	p.close()
	if name == "price" {
		p.fold()
	}
	p.cur, p.t = name, time.Now()
	p.curSpan = p.tr.begin("core."+name, p.job, p.parent)
}

func (p *phaseClock) onProgress(pr search.Progress) {
	if pr.Evaluations != pr.ExactEvals+pr.BoundSkips+pr.SurrogateEvals {
		p.badSplit++
	}
	p.last, p.haveLast = pr, true
}

func (p *phaseClock) close() {
	if p.cur == "" {
		return
	}
	p.ms[p.cur] += float64(time.Since(p.t)) / float64(time.Millisecond)
	p.tr.end(p.curSpan)
	p.cur = ""
}

func (p *phaseClock) fold() {
	if p.haveLast {
		p.sum.Evaluations += p.last.Evaluations
		p.sum.ExactEvals += p.last.ExactEvals
		p.sum.BoundSkips += p.last.BoundSkips
		p.sum.SurrogateEvals += p.last.SurrogateEvals
		p.sum.Accepted += p.last.Accepted
		p.sum.Rejected += p.last.Rejected
		p.haveLast = false
	}
}

func (p *phaseClock) done() {
	p.close()
	p.fold()
}

// checkMapping reports why mp is not an injective, in-range placement
// of cores cores on tiles tiles ("" when it is).
func checkMapping(mp mapping.Mapping, cores, tiles int) string {
	if len(mp) != cores {
		return fmt.Sprintf("mapping places %d cores, want %d", len(mp), cores)
	}
	seen := make([]bool, tiles)
	for c, t := range mp {
		if int(t) < 0 || int(t) >= tiles {
			return fmt.Sprintf("core %d on tile %d outside 0..%d", c, t, tiles-1)
		}
		if seen[t] {
			return fmt.Sprintf("tile %d holds two cores", t)
		}
		seen[t] = true
	}
	return ""
}

// reprice checks a reported (texec, energy) pair against a fresh CDCM
// evaluation of the mapping; it returns "" when both match exactly.
func reprice(fresh *core.CDCM, mp mapping.Mapping, tech energy.Tech, cycles int64, totalJ float64) string {
	m, err := fresh.EvaluateWith(mp, tech)
	if err != nil {
		return fmt.Sprintf("reprice failed: %v", err)
	}
	if m.ExecCycles != cycles || m.Total() != totalJ {
		return fmt.Sprintf("reported texec %d / energy %.17g J, reprice gives %d / %.17g J (%s)",
			cycles, totalJ, m.ExecCycles, m.Total(), tech.Name)
	}
	return ""
}

// randomMappings draws a seeded sample of n random placements.
func randomMappings(seed int64, n, cores, tiles int) ([]mapping.Mapping, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]mapping.Mapping, n)
	for i := range out {
		mp, err := mapping.Random(rng, cores, tiles)
		if err != nil {
			return nil, err
		}
		out[i] = mp
	}
	return out, nil
}

// simCost times RunScratch directly: it cycles through mps on one scratch
// lane for at least minDur and returns microseconds and heap allocations
// per simulation, measured after one warm-up pass.
func simCost(sim *wormhole.Simulator, mps []mapping.Mapping, minDur time.Duration) (us, allocs float64, err error) {
	sc := sim.NewScratch()
	for _, mp := range mps {
		if _, err := sim.RunScratch(mp, sc); err != nil {
			return 0, 0, err
		}
	}
	before := readMem()
	t0 := time.Now()
	n := 0
	for time.Since(t0) < minDur || n < len(mps) {
		if _, err := sim.RunScratch(mps[n%len(mps)], sc); err != nil {
			return 0, 0, err
		}
		n++
	}
	el := time.Since(t0)
	after := readMem()
	return float64(el) / float64(time.Microsecond) / float64(n), float64(after.mallocs-before.mallocs) / float64(n), nil
}

// swapDeltaCost times core.CWM.SwapDelta on a random placement of g,
// probing a fixed seeded set of tile pairs (warmed once) for at least
// minDur; it returns nanoseconds per probe.
func swapDeltaCost(mesh *topology.Mesh, cfg noc.Config, tech energy.Tech, g *model.CDCG, seed int64, minDur time.Duration) (float64, error) {
	cwm, err := core.NewCWM(mesh, cfg, tech, g.ToCWG())
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	tiles := mesh.NumTiles()
	mp, err := mapping.Random(rng, g.NumCores(), tiles)
	if err != nil {
		return 0, err
	}
	if _, err := cwm.Reset(mp); err != nil {
		return 0, err
	}
	occ := mp.Occupants(tiles)
	pairs := make([][2]topology.TileID, 256)
	for i := range pairs {
		a := rng.Intn(tiles)
		b := (a + 1 + rng.Intn(tiles-1)) % tiles
		pairs[i] = [2]topology.TileID{topology.TileID(a), topology.TileID(b)}
	}
	for _, p := range pairs {
		if _, err := cwm.SwapDelta(occ, p[0], p[1]); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	n := 0
	for time.Since(t0) < minDur {
		for _, p := range pairs {
			if _, err := cwm.SwapDelta(occ, p[0], p[1]); err != nil {
				return 0, err
			}
		}
		n += len(pairs)
	}
	return float64(time.Since(t0)) / float64(n), nil
}

// simInstance is one workload instance with the mappings a run returned
// for it.
type simInstance struct {
	mesh *topology.Mesh
	cfg  noc.Config
	g    *model.CDCG
	mps  []mapping.Mapping // returned mappings
}

// simLayer is the wormhole part of a traced run: per-simulation cost and
// allocations over each instance's returned mappings plus a seeded
// random sample, and the median wormhole.NewSimulator (route and port
// table) build time, averaged over instances.
// It returns the microseconds per simulation of each instance, the input
// of the wormhole.sim_share estimate.
func simLayer(o *outcome, insts []simInstance, seed int64, perInstance time.Duration) ([]float64, error) {
	var us, allocs, build []float64
	for k, in := range insts {
		sim, err := wormhole.NewSimulator(in.mesh, in.cfg, in.g)
		if err != nil {
			return nil, err
		}
		sample, err := randomMappings(derive(seed, "simsample", k), 8, in.g.NumCores(), in.mesh.NumTiles())
		if err != nil {
			return nil, err
		}
		u, a, err := simCost(sim, append(append([]mapping.Mapping(nil), in.mps...), sample...), perInstance)
		if err != nil {
			return nil, err
		}
		b, _, err := medianSetup(5, 0, func() (*wormhole.Simulator, error) {
			return wormhole.NewSimulator(in.mesh, in.cfg, in.g)
		})
		if err != nil {
			return nil, err
		}
		us, allocs, build = append(us, u), append(allocs, a), append(build, b*1000)
	}
	o.layer["wormhole.sim_us"] = mean(us)
	o.layer["wormhole.allocs_per_sim"] = mean(allocs)
	o.layer["wormhole.build_ms"] = mean(build)
	return us, nil
}

// jobLayers is what one traced job contributes to the per-layer metrics.
type jobLayers struct {
	buildMS, searchMS, priceMS float64
	// counts holds the job's evaluation split and move decisions.
	counts search.Progress
	// sims counts the job's exact simulator runs; inst indexes the
	// instance whose per-simulation cost prices them.
	sims float64
	inst int
}

// searchLayers fills the core.* phase medians and the search.* counts and
// ratios from the traced jobs, and the wormhole.sim_share estimate:
// exact simulations × measured µs per simulation over search time.
func searchLayers(o *outcome, jobs []jobLayers, simUS []float64) {
	var build, srch, price []float64
	var c search.Progress
	var searchMS, simMS, sims float64
	for _, j := range jobs {
		build, srch, price = append(build, j.buildMS), append(srch, j.searchMS), append(price, j.priceMS)
		c.Evaluations += j.counts.Evaluations
		c.ExactEvals += j.counts.ExactEvals
		c.BoundSkips += j.counts.BoundSkips
		c.SurrogateEvals += j.counts.SurrogateEvals
		c.Accepted += j.counts.Accepted
		c.Rejected += j.counts.Rejected
		searchMS += j.searchMS
		sims += j.sims
		if j.inst < len(simUS) {
			simMS += j.sims * simUS[j.inst] / 1000
		}
	}
	n := float64(len(jobs))
	ev := float64(c.Evaluations)
	o.layer["core.build_ms"] = median(build)
	o.layer["core.search_ms"] = median(srch)
	o.layer["core.price_ms"] = median(price)
	o.layer["search.evaluations"] = ratio(ev, n)
	o.layer["search.exact_evals"] = ratio(float64(c.ExactEvals), n)
	o.layer["search.bound_skips"] = ratio(float64(c.BoundSkips), n)
	o.layer["search.surrogate_evals"] = ratio(float64(c.SurrogateEvals), n)
	o.layer["search.bound_skip_ratio"] = ratio(float64(c.BoundSkips), ev)
	o.layer["search.exact_ratio"] = ratio(float64(c.ExactEvals), ev)
	o.layer["search.accept_ratio"] = ratio(float64(c.Accepted), float64(c.Accepted+c.Rejected))
	o.layer["search.ns_per_eval"] = ratio(searchMS*1e6, ev)
	o.layer["wormhole.sim_share"] = ratio(simMS, searchMS)
	o.notes["sim_share_estimate"] = fmt.Sprintf("%.0f exact simulations x measured us/sim = %.1f ms of %.1f ms search time over %d traced jobs",
		sims, simMS, searchMS, len(jobs))
}

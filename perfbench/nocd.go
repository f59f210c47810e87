package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/appgen"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/service"
	"repro/internal/topology"
)

const (
	// A cycle is twenty requests: four fresh computations, one twin of the
	// slowest fresh request sent right behind it (a dedup: it lands while
	// the first is still computing), and fifteen repeats of fresh requests
	// of earlier cycles (cache hits). No recorded nocd traffic exists, so
	// these proportions are assumptions, each set by the metric it is to
	// expose: cache reads are 75% of the requests, so latency_p50_ms is a
	// cache read wherever the computations fall; computations are 20%, so
	// the p99 latency_tail_ms lands among them; the one twin keeps the
	// dedup path measured. README.md gives the whole derivation.
	nocdCycle = 20
	// nocdQualityCycles is the number of cycles every run completes; the
	// quality metrics average exactly their fresh results.
	nocdQualityCycles = 10
	// nocdMinCycles leaves at least ten samples beyond the p99 tail, and
	// takes the daemon past its 4096 retained job records, so that its
	// peak RSS is the steady state of a full job table.
	nocdMinCycles = 250
	nocdTailPct   = 99
	// Repeats pick among the fresh requests of the nocdRecentCycles cycles
	// before the previous one: well inside the daemon's default 256-entry
	// result cache, and never the previous cycle, whose slow computations
	// may still be running (a repeat of one would be a dedup).
	nocdRecentCycles = 25
	nocdSetupReps    = 15
)

// The four kinds of fresh computation, one of each per cycle: each loads
// a different path (the bound rarely firing, CWM, the bound skipping most
// candidates under hill climbing and under tabu search), and without a
// traffic sample to weight them no path is favoured.
const (
	kindImgHill   = iota // CDCM hill climbing, 12 cores / 88 packets on 3x4: the bound rarely fires
	kindDemoCWM          // CWM-SA on the paper's example application, 3x3
	kindSmallHill        // CDCM hill climbing, tgff-3x4-a-like app: the bound skips most candidates
	kindSmallTabu        // CDCM tabu search on the same kind of app
	numKinds
)

// nocdPlan lays out one cycle: a kind >= 0 is a fresh request of that
// kind, slotTwin repeats the previous position, slotRead repeats an
// earlier fresh request.
const (
	slotTwin = -1
	slotRead = -2
)

var nocdPlan = [nocdCycle]int{
	kindImgHill, slotTwin, slotRead, slotRead, slotRead,
	kindDemoCWM, slotRead, slotRead, slotRead, slotRead,
	kindSmallHill, slotRead, slotRead, slotRead, slotRead,
	kindSmallTabu, slotRead, slotRead, slotRead, slotRead,
}

// nocdReq is one fresh request: its instance (for the local reprice) and
// its encoded body.
type nocdReq struct {
	index int
	kind  int
	app   *model.CDCG
	w, h  int
	body  []byte
}

// nocdMix generates the request sequence. Request i depends only on the
// seed and i, never on timing, so the same seed always sends the same
// sequence whichever client takes which request.
type nocdMix struct {
	seed  int64
	mu    sync.Mutex
	fresh map[int]*nocdReq
}

// request returns the fresh request that request i sends (itself when
// it is a fresh request, the request it repeats otherwise).
func (m *nocdMix) request(i int) (*nocdReq, error) {
	c, pos := i/nocdCycle, i%nocdCycle
	switch nocdPlan[pos] {
	case slotTwin:
		return m.build(i - 1)
	case slotRead:
		var cands []int
		if c == 0 {
			for p := 0; p < pos; p++ {
				if nocdPlan[p] >= 0 {
					cands = append(cands, p)
				}
			}
		}
		for cc := max(0, c-1-nocdRecentCycles); cc < max(1, c-1) && cc < c; cc++ {
			for p, k := range nocdPlan {
				if k >= 0 {
					cands = append(cands, cc*nocdCycle+p)
				}
			}
		}
		rng := rand.New(rand.NewSource(derive(m.seed, "nocd-read", i)))
		return m.build(cands[rng.Intn(len(cands))])
	}
	return m.build(i)
}

// build makes (once) the fresh request at index i.
func (m *nocdMix) build(i int) (*nocdReq, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.fresh[i]; ok {
		return r, nil
	}
	r := &nocdReq{index: i, kind: nocdPlan[i%nocdCycle]}
	req := service.Request{Model: "cdcm", Tech: "0.07um", Seed: derive(m.seed, "nocd-search", i)}
	var err error
	switch r.kind {
	case kindImgHill:
		bits := 110000 + derive(m.seed, "nocd-bits", i)%11000
		r.app, err = apps.ImageEncoder(12, 88, bits)
		r.w, r.h, req.Method = 3, 4, "hill"
	case kindDemoCWM:
		r.app = model.PaperExampleCDCG()
		r.w, r.h, req.Model, req.Method = 3, 3, "cwm", "sa"
	case kindSmallHill, kindSmallTabu:
		// The generator parameters of tgff-3x4-a in exp.Table1Suite
		// (10 cores, 15 packets, 3100 bits), under a fresh seed.
		r.app, err = appgen.Generate(appgen.Params{
			Name: "tgff-3x4-like", Cores: 10, Packets: 15, TotalBits: 3100,
			Seed: derive(m.seed, "nocd-app", i), Mode: appgen.ModePhases,
			ComputeMin: 3100 / 15 / 4, ComputeMax: 3100 / 15,
		})
		r.w, r.h, req.Method = 3, 4, "hill"
		if r.kind == kindSmallTabu {
			req.Method = "tabu"
		}
	}
	if err != nil {
		return nil, err
	}
	req.App = r.app
	req.Mesh = fmt.Sprintf("%dx%d", r.w, r.h)
	if r.body, err = json.Marshal(req); err != nil {
		return nil, err
	}
	m.fresh[i] = r
	return r, nil
}

// daemon is a running nocd child process.
type daemon struct {
	cmd       *exec.Cmd
	addr      string
	pprofAddr string
	drained   chan struct{}
}

// startDaemon launches nocd on a loopback port chosen by the kernel and
// returns once /healthz answers.
func startDaemon(bin string, workers int) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-pprof", "127.0.0.1:0",
		"-workers", strconv.Itoa(workers))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "nocd: pprof on http://"); ok {
				d.pprofAddr, _, _ = strings.Cut(rest, "/")
			}
			if rest, ok := strings.CutPrefix(line, "nocd: listening on "); ok {
				d.addr, _, _ = strings.Cut(rest, " ")
				close(ready)
				break
			}
		}
		_, _ = io.Copy(io.Discard, stderr) // access logs; drained until exit
	}()
	select {
	case <-ready:
	case <-d.drained:
		d.stop()
		return nil, fmt.Errorf("nocd exited before listening")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("nocd did not start listening within 30s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + d.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("nocd /healthz did not answer within 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM (the daemon drains and exits), kills it if it has
// not exited after 30 s, waits for it, and returns its peak RSS in MB.
func (d *daemon) stop() float64 {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	_ = d.cmd.Wait()
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// memStats reads the daemon's runtime.MemStats totals from its pprof
// heap endpoint.
func (d *daemon) memStats(client *http.Client) (memWindow, error) {
	resp, err := client.Get("http://" + d.pprofAddr + "/debug/pprof/heap?debug=1")
	if err != nil {
		return memWindow{}, err
	}
	defer resp.Body.Close()
	var m memWindow
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			continue
		}
		switch k {
		case "Mallocs":
			m.mallocs = n
		case "TotalAlloc":
			m.bytes = n
		case "NumGC":
			m.gc = n
		}
	}
	return m, sc.Err()
}

var errRejected = errors.New("refused by nocd (429/503)")

// nocdRecord is one completed request.
type nocdRecord struct {
	i, fresh, kind int
	class          string // computed, cache or dedup
	result         []byte
	tel            *service.TelemetryJSON
	postUS, waitMS float64
	traced         bool
}

// send runs one request through the API: POST the job, then follow its
// SSE stream until the done event.
func send(client *http.Client, base string, r *nocdReq, tr *tracer, id string) (*nocdRecord, error) {
	root := tr.begin("service.request", id, 0)
	defer tr.end(root)
	t0 := time.Now()
	sp := tr.begin("service.post", id, root)
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(r.body))
	if err != nil {
		return nil, err
	}
	var st service.JobStatus
	decErr := json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tr.end(sp)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		return nil, errRejected
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		return nil, fmt.Errorf("POST /v1/jobs: status %d: %s", resp.StatusCode, st.Error)
	case decErr != nil:
		return nil, fmt.Errorf("POST /v1/jobs: %w", decErr)
	}
	rec := &nocdRecord{postUS: float64(time.Since(t0)) / float64(time.Microsecond)}
	t1 := time.Now()
	sp = tr.begin("service.done_wait", id, root)
	done, err := waitDone(client, base+"/v1/jobs/"+st.ID+"/events")
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	rec.waitMS = float64(time.Since(t1)) / float64(time.Millisecond)
	if done.State != service.StateSucceeded {
		return nil, fmt.Errorf("job %s ended %s: %s", st.ID, done.State, done.Error)
	}
	switch {
	case resp.StatusCode == http.StatusOK && st.CacheHit:
		rec.class = "cache"
	case done.CacheHit:
		rec.class = "dedup"
	default:
		rec.class = "computed"
	}
	rec.result, rec.tel = done.Result, done.Telemetry
	return rec, nil
}

// waitDone reads a job's SSE stream up to its done event.
func waitDone(client *http.Client, url string) (*service.JobStatus, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET events: status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("event stream ended before done: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		if v, ok := strings.CutPrefix(line, "data: "); ok && event == "done" {
			var ev service.Event
			if err := json.Unmarshal([]byte(v), &ev); err != nil {
				return nil, fmt.Errorf("decoding done event: %w", err)
			}
			if ev.Job == nil {
				return nil, fmt.Errorf("done event without job status")
			}
			io.Copy(io.Discard, br)
			return ev.Job, nil
		}
	}
}

// runNocdMix drives a real nocd child process over loopback with
// e.workers closed-loop clients, each waiting for its job's SSE done
// event before sending its next request.
func runNocdMix(e *env) (*outcome, error) {
	o := newOutcome()
	if _, err := os.Stat(e.nocd); err != nil {
		return nil, fmt.Errorf("nocd binary: %w", err)
	}
	var (
		d      *daemon
		starts []float64
	)
	setupStart := time.Now()
	for r := 0; r < nocdSetupReps || time.Since(setupStart) < time.Second; r++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(e.nocd, e.workers); err != nil {
			return nil, err
		}
		starts = append(starts, time.Since(t0).Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	o.e2e["setup_s"] = median(starts)

	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: e.workers, MaxIdleConnsPerHost: e.workers, DisableCompression: true,
	}}
	defer client.CloseIdleConnections()
	base := "http://" + d.addr
	mix := &nocdMix{seed: e.seed, fresh: map[int]*nocdReq{}}

	var mem0, mem1 memWindow
	if e.traced {
		var err error
		if mem0, err = d.memStats(client); err != nil {
			return nil, err
		}
	}
	var (
		mu       sync.Mutex
		records  []*nocdRecord
		rejected int
	)
	samples, wall := e.closedLoop(nocdCycle, nocdMinCycles, func(i int, traced bool) error {
		r, err := mix.request(i)
		if err != nil {
			return err
		}
		var tr *tracer
		if traced {
			tr = e.tr
		}
		rec, err := send(client, base, r, tr, fmt.Sprintf("req-%d", i))
		mu.Lock()
		defer mu.Unlock()
		switch {
		case errors.Is(err, errRejected):
			rejected++
		case err == nil:
			rec.i, rec.fresh, rec.kind, rec.traced = i, r.index, r.kind, traced
			records = append(records, rec)
		}
		return err
	})
	if e.traced {
		var err error
		if mem1, err = d.memStats(client); err != nil {
			return nil, err
		}
	}
	client.CloseIdleConnections()
	stopped = true
	o.e2e["peak_rss_mb"] = d.stop()
	latencyMetrics(o, samples, wall, nocdTailPct)

	firsts, err := checkNocd(o, mix, records)
	if err != nil {
		return nil, err
	}

	// Quality: the fresh results of the first cycles, which every run
	// completes, each against a random-placement sample of its own app.
	var got []core.Metrics
	var refs []reference
	for c := 0; c < nocdQualityCycles; c++ {
		for p, k := range nocdPlan {
			res, ok := firsts[c*nocdCycle+p]
			if k < 0 || !ok {
				continue
			}
			r := mix.fresh[c*nocdCycle+p]
			mesh, err := topology.NewMesh(r.w, r.h)
			if err != nil {
				return nil, err
			}
			cdcm, err := core.NewCDCM(mesh, noc.Default(), energy.Tech007, r.app)
			if err != nil {
				return nil, err
			}
			ref, err := randomReference(cdcm, derive(e.seed, "random-ref", r.index), r.app.NumCores(), mesh.NumTiles())
			if err != nil {
				return nil, err
			}
			got = append(got, core.Metrics{ExecCycles: res.ExecCycles, Energy: energy.Breakdown{Dynamic: res.DynamicJ, Static: res.StaticJ}})
			refs = append(refs, ref)
		}
	}
	qualityVsRandom(o, got, refs)
	o.notes["quality"] = fmt.Sprintf("means over the %d fresh results of the first %d cycles; etr/ecs against %d seeded random placements of each app",
		len(got), nocdQualityCycles, randomRefs)

	var cache, dedup float64
	var post, wait []float64
	for _, rec := range records {
		switch rec.class {
		case "cache":
			cache++
		case "dedup":
			dedup++
		}
		post, wait = append(post, rec.postUS), append(wait, rec.waitMS)
	}
	o.notes["mix"] = fmt.Sprintf("%d requests: %.0f cache hits, %.0f dedups, %d refused; %d clients, closed loop",
		len(samples), cache, dedup, rejected, e.workers)
	if e.traced {
		o.goMetrics(mem0, mem1, len(samples))
		o.notes["go_memstats"] = "nocd runtime.MemStats (pprof heap endpoint) over the measured window, per request"
		n := float64(len(records))
		o.layer["service.post_us"] = median(post)
		o.layer["service.done_wait_ms"] = median(wait)
		o.layer["service.cache_hit_ratio"] = ratio(cache, n)
		o.layer["service.dedup_ratio"] = ratio(dedup, n)
		o.layer["service.rejected"] = float64(rejected)
		if err := nocdLayers(e, o, mix, records, firsts); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// checkNocd validates every successful request: each result is
// byte-identical to the first computation of its fresh request, and each
// distinct result has an injective in-range mapping, texec and energy
// equal to a fresh CDCM reprice, and a consistent evaluation split. It
// returns the decoded result of every fresh request.
func checkNocd(o *outcome, mix *nocdMix, records []*nocdRecord) (map[int]*service.Result, error) {
	first := map[int][]byte{}
	for _, rec := range records {
		if rec.class == "computed" {
			if _, ok := first[rec.fresh]; !ok {
				first[rec.fresh] = rec.result
			}
		}
	}
	for _, rec := range records {
		ref, ok := first[rec.fresh]
		if !ok {
			o.problem(rec.i, "request %d: no computation of fresh request %d was observed", rec.i, rec.fresh)
			continue
		}
		if !bytes.Equal(ref, rec.result) {
			o.problem(rec.i, "request %d (%s): result differs from the first computation of request %d", rec.i, rec.class, rec.fresh)
		}
	}
	out := map[int]*service.Result{}
	for idx, raw := range first {
		var res service.Result
		if err := json.Unmarshal(raw, &res); err != nil {
			o.problem(idx, "request %d: decoding result: %v", idx, err)
			continue
		}
		r := mix.fresh[idx]
		mesh, err := topology.NewMesh(r.w, r.h)
		if err != nil {
			return nil, err
		}
		mp := make(mapping.Mapping, len(res.Mapping))
		for c, t := range res.Mapping {
			mp[c] = topology.TileID(t)
		}
		if p := checkMapping(mp, r.app.NumCores(), mesh.NumTiles()); p != "" {
			o.problem(idx, "request %d: %s", idx, p)
			continue
		}
		fresh, err := core.NewCDCM(mesh, noc.Default(), energy.Tech007, r.app)
		if err != nil {
			return nil, err
		}
		if p := reprice(fresh, mp, energy.Tech007, res.ExecCycles, res.TotalJ); p != "" {
			o.problem(idx, "request %d: %s", idx, p)
		}
		if res.Evaluations != res.ExactEvals+res.BoundSkips+res.SurrogateEvals || res.Evaluations <= 0 {
			o.problem(idx, "request %d: Evaluations %d != exact %d + bound %d + surrogate %d",
				idx, res.Evaluations, res.ExactEvals, res.BoundSkips, res.SurrogateEvals)
		}
		out[idx] = &res
	}
	return out, nil
}

// nocdLayers reports the per-layer metrics of the traced computed jobs:
// the daemon's own telemetry spans and engine counters, plus direct
// wormhole and CWM timings on one instance of each request kind.
func nocdLayers(e *env, o *outcome, mix *nocdMix, records []*nocdRecord, firsts map[int]*service.Result) error {
	insts := make([]simInstance, numKinds)
	var traced []jobLayers
	var queued []float64
	for _, rec := range records {
		res := firsts[rec.fresh]
		if !rec.traced || rec.class != "computed" || res == nil || rec.tel == nil || rec.tel.Spans == nil {
			continue
		}
		sp := rec.tel.Spans
		j := jobLayers{buildMS: sp.BuildMS, searchMS: sp.SearchMS, priceMS: sp.PriceMS, inst: rec.kind}
		j.counts.Evaluations, j.counts.ExactEvals = res.Evaluations, res.ExactEvals
		j.counts.BoundSkips, j.counts.SurrogateEvals = res.BoundSkips, res.SurrogateEvals
		for _, eng := range rec.tel.Engines {
			j.counts.Accepted += eng.Accepted
			j.counts.Rejected += eng.Rejected
		}
		if rec.kind != kindDemoCWM {
			j.sims = float64(res.ExactEvals)
		}
		traced = append(traced, j)
		queued = append(queued, sp.QueuedMS)

		in := &insts[rec.kind]
		r := mix.fresh[rec.fresh]
		if in.g == nil {
			mesh, err := topology.NewMesh(r.w, r.h)
			if err != nil {
				return err
			}
			*in = simInstance{mesh: mesh, cfg: noc.Default(), g: r.app}
		}
		if len(in.mps) < 8 {
			mp := make(mapping.Mapping, len(res.Mapping))
			for c, t := range res.Mapping {
				mp[c] = topology.TileID(t)
			}
			in.mps = append(in.mps, mp)
		}
	}
	for k, in := range insts {
		if in.g == nil {
			return fmt.Errorf("no traced computation of request kind %d", k)
		}
	}
	simUS, err := simLayer(o, insts, e.seed, 50*time.Millisecond)
	if err != nil {
		return err
	}
	searchLayers(o, traced, simUS)
	o.layer["service.queued_ms"] = median(queued)
	demo := insts[kindDemoCWM]
	ns, err := swapDeltaCost(demo.mesh, demo.cfg, energy.Tech007, demo.g, derive(e.seed, "swapdelta", 0), 50*time.Millisecond)
	if err != nil {
		return err
	}
	o.layer["core.cwm_swapdelta_ns"] = ns
	return nil
}

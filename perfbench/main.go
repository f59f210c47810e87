// Command perfbench is the repository's layered benchmark: one command
// that runs a named workload against the mapping explorer, prints every
// end-to-end metric by name and unit, checks every output, and — in a
// separate traced run — reports per-layer numbers with a span file.
//
//	bash perfbench/run.sh --workload table2-small --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload nocd-mix --seed 3 --seconds 30 --trace 1 -cpuprofile cpu.out
//	bash perfbench/run.sh compare base-results/ new-results/
//
// run.sh builds this program and cmd/nocd from the checkout, then runs
// it from the repository root, where it reads the metric names and units
// from BENCHMARK.json. The last line of standard output is one JSON object
// {correct, attempted, failed, metrics}; a full results file with machine
// metadata, the layer map and the estimate inputs is written under -out.
// A failed output check makes the command exit 1. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"strings"
	"sync"
	"time"
)

// benchFile is the benchmark definition at the repository root: the
// metric names and units, and the bounds the comparison applies.
const benchFile = "BENCHMARK.json"

type benchDef struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

// benchMetric is one listed metric; per-layer metrics have no bound.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is one run's configuration, shared by every workload.
type env struct {
	seed    int64
	seconds float64
	traced  bool
	workers int
	nocd    string
	tr      *tracer // nil unless traced
}

// outcome is what a workload reports back to main: metric values by the
// names BENCHMARK.json lists (which also gives their units), notes for the
// results file, and the job counts.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	notes     map[string]any
	attempted int
	// problems lists every failed, refused or wrong-output job and every
	// failed output check; any entry makes the run incorrect.
	problems []string
	// badJobs holds the jobs with a problem; unowned counts the problems
	// of checks that belong to no single job.
	badJobs map[int]bool
	unowned int
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, notes: map[string]any{}, badJobs: map[int]bool{}}
}

// problem records a failed check of job (or of no single job when job
// is negative).
func (o *outcome) problem(job int, format string, args ...any) {
	if job >= 0 {
		o.badJobs[job] = true
	} else {
		o.unowned++
	}
	if len(o.problems) < 50 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// failed is the number of jobs that failed, were refused or returned a
// wrong output; a failed check that belongs to no single job counts as
// one more.
func (o *outcome) failed() int { return len(o.badJobs) + o.unowned }

// workload is one named benchmark input. workers is its number of
// closed-loop goroutines: one for the in-process explorations, whose
// latency is then a single job's on an otherwise idle machine (two
// concurrent 12x10 explorations share caches and stop each other for
// every GC cycle, which about doubled the run-to-run spread), and nproc
// for the daemon, which is built to serve concurrent requests.
type workload struct {
	name     string
	workers  int
	loads    []string
	bypasses []string
	run      func(*env) (*outcome, error)
}

var workloads = []workload{
	{
		name:     "table2-small",
		workers:  1,
		loads:    []string{"exp.RunTable2", "core.CompareModels", "core.Explore", "search (SA engine loop)", "core.CWM swap delta", "wormhole (small instances)"},
		bypasses: []string{"service", "HTTP", "tier-A bound", "tier-B surrogate"},
		run:      runTable2,
	},
	{
		name:     "cdcm-sa-12x10",
		workers:  1,
		loads:    []string{"core.Explore", "search (SA engine loop)", "tier-B surrogate", "wormhole (99-core exact re-simulation)"},
		bypasses: []string{"service", "HTTP", "core.CWM", "tier-A bound"},
		run:      runCDCMSA,
	},
	{
		name:     "nocd-mix",
		workers:  runtime.NumCPU(),
		loads:    []string{"HTTP", "service (decode, key hash, queue, cache, dedup, encode, SSE)", "core.Explore", "search (hill, tabu, SA)", "tier-A bound", "core.CWM", "wormhole (small instances)"},
		bypasses: []string{"tier-B surrogate", "exp"},
		run:      runNocdMix,
	},
}

// interactions is the layer → end-to-end table: which end-to-end metric
// each per-layer metric is expected to move, and on which workload.
var interactions = []struct {
	Layer     string `json:"layer"`
	Moves     string `json:"moves"`
	Workloads string `json:"workloads"`
}{
	{"core.build_ms core.search_ms core.price_ms", "latency_p50_ms jobs_per_s", "table2-small cdcm-sa-12x10 (nocd-mix via telemetry.spans)"},
	{"service.queued_ms", "latency_tail_ms", "nocd-mix"},
	{"search.bound_skip_ratio", "latency_p50_ms latency_tail_ms", "nocd-mix"},
	{"search.exact_ratio", "latency_p50_ms texec_cycles", "cdcm-sa-12x10"},
	{"search.ns_per_eval", "jobs_per_s", "table2-small"},
	{"search.accept_ratio", "texec_cycles energy_uj", "all"},
	{"wormhole.sim_us wormhole.sim_share", "latency_p50_ms jobs_per_s", "cdcm-sa-12x10"},
	{"wormhole.build_ms", "setup_s (and core.build_ms on nocd-mix)", "all"},
	{"core.cwm_swapdelta_ns", "jobs_per_s", "table2-small"},
	{"go.allocs_per_job go.alloc_bytes_per_job go.gc_per_job", "peak_rss_mb latency_tail_ms", "all"},
	{"service.post_us service.done_wait_ms service.cache_hit_ratio service.dedup_ratio service.rejected", "latency_p50_ms jobs_per_s (error via failed/attempted)", "nocd-mix only; zero on the other two"},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name       = flag.String("workload", "", "workload to run: table2-small, cdcm-sa-12x10 or nocd-mix")
		seed       = flag.Int64("seed", 1, "workload seed; every generated input derives from it")
		seconds    = flag.Float64("seconds", 30, "measurement window in seconds (whole rounds are always completed)")
		traceMode  = flag.Int("trace", 0, "1 = traced run: per-layer metrics, span file and tracing overhead")
		nocd       = flag.String("nocd", filepath.Join(".bench_build", "bin", "nocd"), "nocd binary for the nocd-mix workload")
		out        = flag.String("out", filepath.Join(".bench_build", "results"), "directory for the results and span files")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		exectrace  = flag.String("exectrace", "", "write a Go execution trace of the run to this file")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	var def benchDef
	if err := readJSON(benchFile, &def); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	e := &env{seed: *seed, seconds: *seconds, traced: *traceMode == 1, workers: w.workers, nocd: *nocd}
	if e.traced {
		e.tr = newTracer()
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	stop, err := startProfiles(*cpuprofile, *exectrace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o, err := w.run(e)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := report(def, w, e, o, *out, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if len(o.problems) > 0 {
		os.Exit(1)
	}
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

func startProfiles(cpuprofile, exectrace string) (stop func(), err error) {
	var closers []func()
	stop = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return stop, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return stop, err
		}
		closers = append(closers, func() { pprof.StopCPUProfile(); f.Close() })
	}
	if exectrace != "" {
		f, err := os.Create(exectrace)
		if err != nil {
			stop()
			return func() {}, err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			stop()
			return func() {}, err
		}
		closers = append(closers, func() { trace.Stop(); f.Close() })
	}
	return stop, nil
}

// report prints the human-readable summary and the final JSON line, and
// writes the results file (plus the span file of a traced run).
// Every metric BENCHMARK.json lists for the run's mode is printed with
// its unit; the service layer reads 0 on the workloads that bypass it.
func report(def benchDef, w *workload, e *env, o *outcome, outDir string, args []string) error {
	list, values := def.EndToEnd, o.e2e
	if e.traced {
		list, values = def.PerLayer, o.layer
	}
	printed := map[string]metric{}
	for _, m := range list {
		printed[m.Name] = metric{Value: values[m.Name], Unit: m.Unit}
	}
	for name, v := range values {
		if _, ok := printed[name]; !ok {
			return fmt.Errorf("%s reports %s, which %s does not list", w.name, name, benchFile)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: %s is %g", w.name, name, v)
		}
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%t workers=%d\n",
		w.name, e.seed, e.seconds, e.traced, e.workers)
	for _, m := range list {
		if _, ok := values[m.Name]; !ok && !strings.HasPrefix(m.Name, "service.") {
			return fmt.Errorf("%s did not report %s", w.name, m.Name)
		}
		fmt.Printf("  %-26s %14.6g %s\n", m.Name, printed[m.Name].Value, m.Unit)
	}
	keys := make([]string, 0, len(o.notes))
	for k := range o.notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  note %s: %v\n", k, o.notes[k])
	}
	failed := o.failed()
	fmt.Printf("  error_ratio %.4g (%d failed of %d attempted)\n", ratio(float64(failed), float64(o.attempted)), failed, o.attempted)
	fmt.Printf("  loads: %s\n  bypasses: %s\n", strings.Join(w.loads, "; "), strings.Join(w.bypasses, "; "))
	for _, p := range o.problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}

	correct := len(o.problems) == 0
	mode := "e2e"
	if e.traced {
		mode = "trace"
	}
	base := fmt.Sprintf("%s-seed%d-%s", w.name, e.seed, mode)
	full := map[string]any{
		"workload":     w.name,
		"seed":         e.seed,
		"seconds":      e.seconds,
		"trace":        e.traced,
		"args":         args,
		"machine":      machineInfo(e),
		"loads":        w.loads,
		"bypasses":     w.bypasses,
		"interactions": interactions,
		"metrics":      printed,
		"notes":        o.notes,
		"error_ratio":  ratio(float64(failed), float64(o.attempted)),
		"correct":      correct,
		"attempted":    o.attempted,
		"failed":       failed,
		"problems":     o.problems,
	}
	if e.traced {
		spanFile := filepath.Join(outDir, base+".spans.json")
		if err := e.tr.write(spanFile); err != nil {
			return err
		}
		full["span_file"] = spanFile
		fmt.Printf("  spans: %s\n", spanFile)
	}
	if err := writeJSON(filepath.Join(outDir, base+".json"), full); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": o.attempted, "failed": failed, "metrics": printed,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// sample is one job of a closed-loop run.
type sample struct {
	job    int
	round  int
	traced bool
	ms     float64
	err    error
}

// closedLoop issues jobs 0, 1, 2, ... to e.workers goroutines, each
// sending its next job only when the previous one returned. Job i belongs
// to round i/roundLen. A new round starts only while fewer than minRounds
// have started or the window of e.seconds is still open, so every run
// measures whole rounds. In a traced run every odd round is traced and
// every even one is not, which gives the tracing overhead on the same mix.
// wall runs from the first issue to the last completion.
func (e *env) closedLoop(roundLen, minRounds int, do func(i int, traced bool) error) (samples []sample, wall time.Duration) {
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	samples = []sample{}
	start := time.Now()
	window := time.Duration(e.seconds * float64(time.Second))
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		i := next
		if i%roundLen == 0 && i/roundLen >= minRounds && time.Since(start) >= window {
			return 0, false
		}
		next++
		return i, true
	}
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				round := i / roundLen
				traced := e.traced && round%2 == 1
				t0 := time.Now()
				err := do(i, traced)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				mu.Lock()
				samples = append(samples, sample{job: i, round: round, traced: traced, ms: ms, err: err})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// latencyMetrics fills jobs_per_s, latency_p50_ms and latency_tail_ms
// from the successful samples, and the trace overhead when traced. A
// failed or refused job is a problem, so the run is incorrect. The
// tail percentile is fixed per workload (tailPct) and every run takes
// enough samples to leave at least ten beyond it.
func latencyMetrics(o *outcome, samples []sample, wall time.Duration, tailPct float64) {
	var all, tr, untr []float64
	for _, s := range samples {
		o.attempted++
		if s.err != nil {
			o.problem(s.job, "job %d: %v", s.job, s.err)
			continue
		}
		all = append(all, s.ms)
		if s.traced {
			tr = append(tr, s.ms)
		} else {
			untr = append(untr, s.ms)
		}
	}
	o.e2e["jobs_per_s"] = float64(len(all)) / wall.Seconds()
	o.e2e["latency_p50_ms"] = median(all)
	tail := quantile(all, tailPct/100)
	o.e2e["latency_tail_ms"] = tail
	beyond := 0
	for _, x := range all {
		if x > tail {
			beyond++
		}
	}
	o.notes["latency_tail"] = fmt.Sprintf("p%g over %d samples (%d beyond)", tailPct, len(all), beyond)
	if len(tr) > 0 && len(untr) > 0 {
		o.layer["trace.overhead_pct"] = (median(tr)/median(untr) - 1) * 100
		o.notes["trace_overhead"] = fmt.Sprintf("p50 of %d traced vs %d untraced jobs of the same mix", len(tr), len(untr))
	}
}

// medianSetup runs set-up at least minReps times and for at least minDur,
// and returns the median duration in seconds together with the last
// set-up's value. Many short reps keep one slow rep (a cold cache, a burst
// of host load) from moving the figure. Each rep starts from a collected
// heap, so the garbage of earlier reps neither lands a GC cycle inside a
// later one nor raises the process's peak RSS.
func medianSetup[T any](minReps int, minDur time.Duration, f func() (T, error)) (float64, T, error) {
	var last T
	var ds []float64
	start := time.Now()
	for r := 0; r < minReps || time.Since(start) < minDur; r++ {
		runtime.GC()
		t0 := time.Now()
		v, err := f()
		if err != nil {
			return 0, last, err
		}
		ds = append(ds, time.Since(t0).Seconds())
		last = v
	}
	return median(ds), last, nil
}

// memWindow is a runtime.MemStats delta over a measured window.
type memWindow struct{ mallocs, bytes, gc uint64 }

func readMem() memWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memWindow{ms.Mallocs, ms.TotalAlloc, uint64(ms.NumGC)}
}

func (o *outcome) goMetrics(before, after memWindow, jobs int) {
	n := float64(jobs)
	o.layer["go.allocs_per_job"] = ratio(float64(after.mallocs-before.mallocs), n)
	o.layer["go.alloc_bytes_per_job"] = ratio(float64(after.bytes-before.bytes), n)
	o.layer["go.gc_per_job"] = ratio(float64(after.gc-before.gc), n)
}

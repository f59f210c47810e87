package service

import (
	"encoding/json"
	"io"
	"time"

	"repro/internal/core"
)

// Result is the machine-readable outcome of one mapping job — the schema
// shared byte-for-byte between `nocmap -json` and the daemon's job API.
//
// Determinism contract: Result contains only values derived from the
// instance and the (seeded) search — no timestamps, durations or host
// state — so identical (instance, strategy, seed) submissions marshal to
// byte-identical JSON. Wall-clock data lives in the surrounding envelope
// (JobStatus for the daemon, CLIResult for the CLI). The daemon's result
// cache relies on this: a cached entry is indistinguishable from a fresh
// compute.
type Result struct {
	// Application identity.
	App       string `json:"app"`
	AppHash   string `json:"app_hash"`
	Cores     int    `json:"cores"`
	Packets   int    `json:"packets"`
	TotalBits int64  `json:"total_bits"`

	// Instance parameters.
	Grid     string `json:"grid"`     // "WxHxD"
	Topology string `json:"topology"` // mesh | torus
	Routing  string `json:"routing"`
	FlitBits int    `json:"flit_bits"`
	Tech     string `json:"tech"`
	Model    string `json:"model"`
	Method   string `json:"method"`
	Seed     int64  `json:"seed"`
	Restarts int    `json:"restarts"`

	// Search outcome.
	Mapping     []int   `json:"mapping"` // core index -> tile index
	BestCost    float64 `json:"best_cost_j"`
	InitialCost float64 `json:"initial_cost_j"`
	Evaluations int64   `json:"evaluations"`
	// The two-tier split of Evaluations (always ExactEvals + BoundSkips +
	// SurrogateEvals): simulations started (whether the tier-A cutoff
	// stopped them part-way or not), candidates the cutoff disposed of
	// before their first packet, and candidates priced on the tier-B
	// surrogate. Single-tier runs report ExactEvals ==
	// Evaluations and zero for the other two.
	ExactEvals     int64 `json:"exact_evals"`
	BoundSkips     int64 `json:"bound_skips"`
	SurrogateEvals int64 `json:"surrogate_evals"`
	Improvements   int64 `json:"improvements"`
	Certified      bool  `json:"certified"`

	// CDCM pricing of the winner (cost breakdown).
	ExecCycles       int64   `json:"exec_cycles"`
	ExecNS           float64 `json:"exec_ns"`
	ContentionCycles int64   `json:"contention_cycles"`
	TSVBits          int64   `json:"tsv_bits"`
	DynamicJ         float64 `json:"dynamic_j"`
	StaticJ          float64 `json:"static_j"`
	TotalJ           float64 `json:"total_j"`

	// Pareto front (model "pareto" only, omitted otherwise). FrontAxes
	// names the component axes; Front lists the mutually non-dominated
	// points in the engine's deterministic order. Like everything else in
	// Result the front is a pure function of the instance, so cached and
	// fresh responses stay byte-identical.
	FrontAxes []string         `json:"front_axes,omitempty"`
	Front     []FrontPointJSON `json:"front,omitempty"`

	// Resilience is the fault-degradation report of the winning mapping,
	// present whenever the request configured a non-empty fault set (any
	// model) and omitted otherwise. It is a pure function of the instance
	// like the rest of Result, so the byte-identical replay contract
	// holds for resilience jobs too.
	Resilience *ResilienceJSON `json:"resilience,omitempty"`
}

// ResilienceJSON is the result-schema form of core.ResilienceScore.
type ResilienceJSON struct {
	// FaultSet is the canonical fault enumeration the score covers.
	FaultSet string `json:"fault_set"`
	// Score grades the mapping 0..100 (100 × intact texec / worst-fault
	// texec; unreachable scenarios enter through the documented penalty).
	Score float64 `json:"score"`
	// Intact baseline and degradation summary.
	BaseExecCycles  int64   `json:"base_exec_cycles"`
	BaseTotalJ      float64 `json:"base_total_j"`
	WorstExecCycles int64   `json:"worst_exec_cycles"`
	WorstElement    string  `json:"worst_element,omitempty"`
	MeanExecCycles  float64 `json:"mean_exec_cycles"`
	WorstDeltaJ     float64 `json:"worst_delta_j"`
	MeanDeltaJ      float64 `json:"mean_delta_j"`
	Unreachable     int     `json:"unreachable"`
	// Impacts is the per-fault breakdown in canonical element order.
	Impacts []FaultImpactJSON `json:"impacts"`
	// Recommendations are the deterministic rule-based notes.
	Recommendations []string `json:"recommendations"`
}

// FaultImpactJSON is one single-fault scenario of the breakdown.
type FaultImpactJSON struct {
	Element     string  `json:"element"`
	Unreachable bool    `json:"unreachable,omitempty"`
	ExecCycles  int64   `json:"exec_cycles"`
	TotalJ      float64 `json:"total_j"`
	DeltaCycles int64   `json:"delta_cycles"`
	DeltaJ      float64 `json:"delta_j"`
}

// FrontPointJSON is one Pareto-front point in the result schema.
type FrontPointJSON struct {
	// Mapping is core index -> tile index.
	Mapping []int `json:"mapping"`
	// Components prices the mapping per axis, in FrontAxes order.
	Components []float64 `json:"components"`
	// CostJ is the scalar ENoC collapse of the components.
	CostJ float64 `json:"cost_j"`
}

// NewResult builds the shared result record from one exploration.
func NewResult(in *Instance, res *core.ExploreResult) *Result {
	mp := make([]int, len(res.Best))
	for c, t := range res.Best {
		mp[c] = int(t)
	}
	name := in.G.Name
	if name == "" {
		name = "(unnamed)"
	}
	met := res.Metrics
	var frontAxes []string
	var front []FrontPointJSON
	if res.Front != nil {
		frontAxes = res.Front.Axes
		front = make([]FrontPointJSON, len(res.Front.Points))
		for i, p := range res.Front.Points {
			pm := make([]int, len(p.Mapping))
			for c, t := range p.Mapping {
				pm[c] = int(t)
			}
			front[i] = FrontPointJSON{
				Mapping:    pm,
				Components: append([]float64(nil), p.Components...),
				CostJ:      p.Cost,
			}
		}
	}
	return &Result{
		App:       name,
		AppHash:   in.G.Hash(),
		Cores:     in.G.NumCores(),
		Packets:   in.G.NumPackets(),
		TotalBits: in.G.TotalBits(),

		Grid:     in.GridSpec(),
		Topology: in.Mesh.Kind().String(),
		Routing:  in.Cfg.Routing.String(),
		FlitBits: in.Cfg.FlitBits,
		Tech:     in.Tech.Name,
		Model:    in.Strategy.String(),
		Method:   in.Method.String(),
		Seed:     in.Opts.Seed,
		Restarts: in.Opts.Restarts,

		Mapping:        mp,
		BestCost:       res.Search.BestCost,
		InitialCost:    res.Search.InitialCost,
		Evaluations:    res.Search.Evaluations,
		ExactEvals:     res.Search.ExactEvals,
		BoundSkips:     res.Search.BoundSkips,
		SurrogateEvals: res.Search.SurrogateEvals,
		Improvements:   res.Search.Improvements,
		Certified:      res.Search.Certified,

		ExecCycles:       met.ExecCycles,
		ExecNS:           met.ExecNS,
		ContentionCycles: met.ContentionCycles,
		TSVBits:          met.TSVBits,
		DynamicJ:         met.Energy.Dynamic,
		StaticJ:          met.Energy.Static,
		TotalJ:           met.Total(),

		FrontAxes: frontAxes,
		Front:     front,

		Resilience: resilienceJSON(res.Resilience),
	}
}

// resilienceJSON converts the core degradation report into the result
// schema (nil in, nil out).
func resilienceJSON(sc *core.ResilienceScore) *ResilienceJSON {
	if sc == nil {
		return nil
	}
	impacts := make([]FaultImpactJSON, len(sc.Impacts))
	for i, imp := range sc.Impacts {
		impacts[i] = FaultImpactJSON{
			Element:     imp.Element,
			Unreachable: imp.Unreachable,
			ExecCycles:  imp.ExecCycles,
			TotalJ:      imp.TotalJ,
			DeltaCycles: imp.DeltaCycles,
			DeltaJ:      imp.DeltaJ,
		}
	}
	return &ResilienceJSON{
		FaultSet:        sc.FaultKey,
		Score:           sc.Score,
		BaseExecCycles:  sc.BaseExecCycles,
		BaseTotalJ:      sc.BaseTotalJ,
		WorstExecCycles: sc.WorstExecCycles,
		WorstElement:    sc.WorstElement,
		MeanExecCycles:  sc.MeanExecCycles,
		WorstDeltaJ:     sc.WorstDeltaJ,
		MeanDeltaJ:      sc.MeanDeltaJ,
		Unreachable:     sc.Unreachable,
		Impacts:         impacts,
		Recommendations: append([]string(nil), sc.Recommendations...),
	}
}

// CLIResult is the envelope `nocmap -json` emits: the deterministic
// Result plus wall-clock elapsed time, kept outside Result so repeated
// identical runs differ only in the envelope.
type CLIResult struct {
	Result    *Result `json:"result"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// WriteCLI encodes the CLI envelope as indented JSON.
func WriteCLI(w io.Writer, res *Result, elapsed time.Duration) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(CLIResult{Result: res, ElapsedMS: float64(elapsed.Nanoseconds()) / 1e6})
}

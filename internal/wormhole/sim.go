package wormhole

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/topology"
)

// ErrUnreachable reports that a simulated mapping routes at least one
// packet between tiles that the simulator's fault set partitions (see
// NewSimulatorFaults). It is a static sentinel so the allocation-free run
// path can report it without allocating; resilience scoring treats it as
// a documented penalty, not a hard failure. errors.Is(err,
// topology.ErrUnreachable) also matches it.
var ErrUnreachable = fmt.Errorf("wormhole: packet route crosses a faulted partition: %w", topology.ErrUnreachable)

// ResourceKind classifies the NoC resources tracked by the simulator.
type ResourceKind int

// Resource kinds.
//
// Routers are crossbars: packets only contend when they request the same
// OUTPUT port. (The paper's Figure 3(a) shows A→B and B→F overlapping in
// router τ1 — different outputs — while A→F stalls behind B→F, which holds
// the same τ1→τ3 output.) KindRouterPort is therefore the exclusive
// resource: index = tile*NumPorts + direction, with direction 0..5 the
// topology directions (E, W, S, N plus the vertical Down/Up of 3-D grids)
// and 6 the local (core) port. KindRouter is the display view of a
// router: the union of its ports' traffic, each span stretched back to
// the packet's arrival (time spent waiting in the input buffer included),
// exactly like the paper's router annotations; those spans may overlap.
//
// CoreOut is the link from an IP core into its local router; CoreIn the
// link from a router down to its core. They are distinct full-duplex
// resources: Figure 3 shows a core's outgoing and incoming packets
// overlapping in time.
const (
	KindRouter ResourceKind = iota
	KindRouterPort
	KindLink
	KindCoreOut
	KindCoreIn
)

// NumPorts is the number of output ports per router:
// E, W, S, N, Down, Up, Local. 2-D routers simply never book the two
// vertical ports, so the port-index layout is uniform across 2-D and 3-D
// grids.
const NumPorts = 7

// LocalPort is the output-port index of the router→core direction.
const LocalPort = 6

func (k ResourceKind) String() string {
	switch k {
	case KindRouter:
		return "router"
	case KindRouterPort:
		return "router-port"
	case KindLink:
		return "link"
	case KindCoreOut:
		return "core-out"
	case KindCoreIn:
		return "core-in"
	}
	return "?"
}

// PacketSchedule is the simulated timeline of one CDCG packet.
type PacketSchedule struct {
	ID model.PacketID
	// Ready is the cycle at which every dependence was satisfied (0 for
	// packets that only depend on Start).
	Ready int64
	// Start is Ready + the packet's computation time: the cycle the first
	// flit enters the source core's output link.
	Start int64
	// Delivered is the cycle the last flit reaches the destination core.
	Delivered int64
	// Contention is the total stall time in cycles spent waiting for busy
	// output ports (and, degenerately, links) along the route.
	Contention int64
	// K is the number of routers traversed.
	K int
	// Flits is the packet length in flits.
	Flits int64
}

// ComputeDelay returns Start-Ready (the paper's "computation delay").
func (p PacketSchedule) ComputeDelay() int64 { return p.Start - p.Ready }

// Result is the outcome of simulating one CDCG on one mapping.
type Result struct {
	// ExecCycles is texec: the cycle the last packet is delivered.
	ExecCycles int64
	// Packets holds one schedule per CDCG packet, indexed by PacketID.
	Packets []PacketSchedule
	// RouterBits[t] is the total bit volume that traversed the router of
	// tile t (feeds the ERbit term of the energy model).
	RouterBits []int64
	// LinkBits[l] is the total bit volume that traversed inter-tile link
	// l (dense link index; feeds the ELbit term).
	LinkBits []int64
	// CoreBits is the total bit volume over core↔router links (2 per
	// packet; feeds the optional ECbit term).
	CoreBits int64
	// TSVBits is the subset of the LinkBits total that crossed vertical
	// (TSV) links — always zero on depth-1 grids. It feeds the ETSVbit
	// term of the 3-D energy model.
	TSVBits int64
	// TotalContention is the sum of all packet contention delays.
	TotalContention int64

	occ *occStore // nil unless the run recorded occupancies
}

// occStore holds per-resource occupancy lists for rendering/analysis runs.
type occStore struct {
	routerSpans []busyList // display spans incl. buffer wait; may overlap
	ports       []busyList
	links       []busyList
	coreOut     []busyList
	coreIn      []busyList
}

// Occupancies returns the recorded busy intervals of a resource, sorted by
// start time, or nil if the run did not record them (RecordOccupancy was
// false) or the resource index is out of range. For KindRouter the
// intervals include input-buffer waiting and may overlap; all other kinds
// are exclusive and never overlap.
func (r *Result) Occupancies(kind ResourceKind, index int) []Occupancy {
	if r.occ == nil {
		return nil
	}
	var ls []busyList
	switch kind {
	case KindRouter:
		ls = r.occ.routerSpans
	case KindRouterPort:
		ls = r.occ.ports
	case KindLink:
		ls = r.occ.links
	case KindCoreOut:
		ls = r.occ.coreOut
	case KindCoreIn:
		ls = r.occ.coreIn
	}
	if index < 0 || index >= len(ls) {
		return nil
	}
	return ls[index].snapshot()
}

// Traffic is the mapping-determined traffic of one run: the totals of a
// Result's RouterBits and LinkBits, its TSVBits and its CoreBits. It
// depends only on the routes, never on contention.
type Traffic struct {
	RouterBits, LinkBits, TSVBits, CoreBits int64
}

// Limiter prices the texec limit of a cutoff run (RunCutoff).
type Limiter interface {
	// Limit returns the smallest texec, in cycles, at which a candidate
	// with traffic t provably loses, or math.MaxInt64 if none does. The
	// answer must be monotone: every texec at or above it loses too.
	Limit(t Traffic) int64
}

// Simulator evaluates mappings of one CDCG on one NoC. Everything bound
// at NewSimulator time — the compiled route table, flit counts and the
// dependence graph — is immutable afterwards, so one Simulator is safe to
// share across goroutines as long as each goroutine runs with its own
// Scratch (NewScratch + RunScratch): that is how the parallel search
// engines evaluate the CDCM objective concurrently without re-parsing or
// locking.
//
// Run is the one-goroutine convenience path: it lazily keeps a private
// internal scratch, so a Simulator used via Run is NOT safe for
// concurrent use.
type Simulator struct {
	Mesh *topology.Mesh
	Cfg  noc.Config
	G    *model.CDCG

	// RecordOccupancy keeps the per-resource busy lists on Results
	// returned by Run, for rendering (Figure 3/4/5 style output). Leave
	// false in search loops — recording snapshots every resource's full
	// occupancy history, which only the trace/Gantt consumers need.
	// RunScratch ignores it; set Scratch.RecordOccupancy instead.
	RecordOccupancy bool

	dg       *graph.Digraph
	numTiles int
	// vertLink[li] marks vertical (TSV) links; nil on depth-1 grids so
	// the 2-D hot loop pays one nil check, nothing more.
	vertLink []bool
	flits    []int64
	// baseIndeg and initHeap are the dependence state every run starts
	// from: per-packet in-degrees and the heap of source packets (keyed
	// by their compute time). Precomputing them turns per-run scheduling
	// setup into two copies.
	baseIndeg []int
	initHeap  []pktKey

	// topo is a topological order of the dependence DAG; cutoff runs
	// walk it backwards to price every packet's contention-free tail.
	topo []int32

	// The compiled route table, precomputed at construction: the route
	// from src to dst is the hop program
	// prog[routeOff[src*n+dst]:routeOff[src*n+dst+1]], one hop per
	// router traversed. Flattening into one backing array keeps the table
	// cache-friendly and the lookup branch-free — no lazy fill, so
	// concurrent RunScratch lanes never write here. Memory is
	// O(n²·avg-route-length), 8 bytes per hop. Construction costs one
	// Route call per tile pair (~6.5 ms on a 12x10 grid) — noise against
	// any search, noticeable only when a Simulator is built to price a
	// single mapping.
	routeOff []int32
	prog     []hop
	// faults is the fault set the route table was built against (nil for
	// an intact simulator — the NewSimulator path, which is bit-identical
	// to the pre-fault behaviour). unreach[src*n+dst] marks tile pairs the
	// fault set partitions; it is nil when every pair is reachable, so the
	// intact hot loop pays a single nil check.
	faults  *topology.FaultSet
	unreach []bool

	scratch  *Scratch // lazily built by Run; nil until then
	initOnce bool
}

// Scratch is the mutable per-lane state of one simulation: busy lists,
// the event heap, dependence counters and the reusable Result backing
// arrays. Results returned by RunScratch point into the scratch and are
// valid only until its next RunScratch — callers that keep a Result
// across runs must copy what they need (or use Run, which returns an
// independent Result).
//
// A Scratch belongs to the Simulator that created it and is not safe for
// concurrent use; concurrency comes from running many scratches, one per
// goroutine, against the same shared Simulator.
type Scratch struct {
	// RecordOccupancy keeps the per-resource busy lists on Results
	// produced through this scratch (see Simulator.RecordOccupancy).
	// Leave false on search lanes: the snapshot allocates.
	RecordOccupancy bool

	sim *Simulator

	ports       []busyList
	links       []busyList
	coreOut     []busyList
	coreIn      []busyList
	routerSpans []busyList // only filled when RecordOccupancy
	indeg       []int
	ready       []int64
	heap        pktHeap
	hops        []hopPlan
	seen        []model.CoreID // mapping-validation buffer, reused per run
	// after[p] is packet p's contention-free DAG tail (see tails) and
	// tail[p] = p's own contention-free time plus after[p]; both are
	// written only by cutoff runs.
	after, tail []int64

	res        Result
	packets    []PacketSchedule
	routerBits []int64
	linkBits   []int64
}

// hop is one router traversal of a compiled route: the output port taken
// there (the router's tile is port / NumPorts) and the link that port
// feeds, -1 at the destination's local port.
type hop struct{ port, link int32 }

// hopPlan is one resource traversal of the packet currently being routed:
// computed during the plan pass, booked during the commit pass.
type hopPlan struct {
	list   *busyList
	t      int64 // acquisition time
	stall  int64 // t - arrival (only >0 on arbitrated resources)
	hold   int64 // busy through [t, t+hold]
	rate   int64 // per-flit cycles of the hop (tl, or tlv on a TSV link)
	isPort bool  // router output port (where input buffering happens)
}

// plan computes the acquisition time of one hop. With unbounded buffers
// (the default) the hop is booked immediately — occupancies never change
// after the fact, so the extra plan/commit pass would be wasted work on
// the annealer's hot path. With bounded buffers the hop is appended to
// the plan and booked by the commit pass after backpressure extensions.
// Unarbitrated resources acquire at arrival regardless of existing
// bookings; on the unbounded path they are booked only for a recording
// run, since no timing decision ever reads them.
//nocvet:noalloc
func (s *Simulator) plan(sc *Scratch, list *busyList, arrival, hold, rate int64, arbitrated, isPort, record bool, pkt model.PacketID) int64 {
	if s.Cfg.Buffers != noc.BuffersBounded {
		if arbitrated {
			return list.acquire(arrival, hold, pkt)
		}
		if record {
			list.record(arrival, hold, pkt)
		}
		return arrival
	}
	t := arrival
	if arbitrated {
		t = list.earliestFree(arrival, hold)
	}
	sc.hops = append(sc.hops, hopPlan{list: list, t: t, stall: t - arrival, hold: hold, rate: rate, isPort: isPort})
	return t
}

// applyBackpressure models bounded router input buffers: when a packet
// waits S cycles at an output port, up to BufferFlits of its flits are
// absorbed by the input buffer; any excess occupies the hop immediately
// upstream (the feeding link — and transitively the port feeding that
// link) for the overflow duration. This is a one-packet-deep analytic
// approximation of wormhole backpressure: extended occupancies delay
// later packets via earliest-fit, but intervals already booked by earlier
// packets are not re-planned (an exact treatment needs flit-level
// simulation; see DESIGN.md). With unbounded buffers it is a no-op.
//nocvet:noalloc
func (s *Simulator) applyBackpressure(sc *Scratch, tl int64) {
	if s.Cfg.Buffers != noc.BuffersBounded {
		return
	}
	for i := range sc.hops {
		hp := &sc.hops[i]
		if !hp.isPort {
			continue
		}
		// The buffer fills at the rate flits arrive over the feeding hop
		// (the upstream link, or tl off the source core), so a buffer
		// downstream of a slow TSV link absorbs proportionally more stall.
		feedRate := tl
		if i > 0 && !sc.hops[i-1].isPort {
			feedRate = sc.hops[i-1].rate
		}
		capCycles := s.Cfg.BufferFlits * feedRate
		if hp.stall <= capCycles {
			continue
		}
		overflow := hp.stall - capCycles
		// Extend the feeding link (hop i-1) and, if present, the port
		// driving that link (hop i-2).
		for back := 1; back <= 2 && i-back >= 0; back++ {
			sc.hops[i-back].hold += overflow
		}
	}
}

// NewSimulator validates the inputs and prepares a reusable simulator:
// every route of the grid is compiled here, once, into its hop program,
// so the run hot path is pure table lookups and the shared state never
// mutates again.
func NewSimulator(mesh *topology.Mesh, cfg noc.Config, g *model.CDCG) (*Simulator, error) {
	return NewSimulatorFaults(mesh, cfg, g, nil)
}

// NewSimulatorFaults is NewSimulator with an optional fault set: the
// route table is precomputed with Mesh.RouteFault, so detours around
// failed links/routers cost nothing at run time and Scratch lanes stay
// allocation-free. Tile pairs the fault set partitions are marked in an
// unreachable bitmap; simulating a mapping that routes a packet across a
// partition fails fast with ErrUnreachable (a static sentinel — the hot
// path allocates nothing to report it). A nil or empty fault set is
// bit-identical to NewSimulator.
func NewSimulatorFaults(mesh *topology.Mesh, cfg noc.Config, g *model.CDCG, fs *topology.FaultSet) (*Simulator, error) {
	if mesh == nil {
		return nil, errors.New("wormhole: nil mesh")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if g.NumCores() > mesh.NumTiles() {
		return nil, fmt.Errorf("wormhole: %d cores exceed %d tiles", g.NumCores(), mesh.NumTiles())
	}
	dg, err := g.DepGraph()
	if err != nil {
		return nil, err
	}
	order, err := dg.TopoSort()
	if err != nil {
		return nil, err
	}
	s := &Simulator{Mesh: mesh, Cfg: cfg, G: g, dg: dg, topo: make([]int32, len(order))}
	for i, p := range order {
		s.topo[i] = int32(p)
	}
	n := mesh.NumTiles()
	s.numTiles = n
	if mesh.D() > 1 {
		s.vertLink = make([]bool, mesh.NumLinks())
		for i := range s.vertLink {
			s.vertLink[i] = mesh.LinkVertical(i)
		}
	}
	s.flits = make([]int64, g.NumPackets())
	for i, p := range g.Packets {
		s.flits[i] = cfg.Flits(p.Bits)
	}
	s.baseIndeg = make([]int, g.NumPackets())
	var srcHeap pktHeap
	for p := range g.Packets {
		s.baseIndeg[p] = dg.InDegree(p)
		if s.baseIndeg[p] == 0 {
			srcHeap.push(pktKey{start: g.Packets[p].Compute, id: model.PacketID(p)})
		}
	}
	s.initHeap = srcHeap.a

	// Dense adjacency, needed only to compile the routes: portOf[a*n+b]
	// is the output port leaving tile a towards adjacent tile b (the
	// diagonal holds the local port), linkOf[a*n+b] the link index, -1
	// where the tiles are not adjacent. Directions are scanned in the
	// East..Up enumeration order and the first link between a tile pair
	// wins (on small tori two directions can reach the same neighbor).
	portOf := make([]int32, n*n)
	linkOf := make([]int32, n*n)
	for i := range portOf {
		portOf[i] = -1
		linkOf[i] = -1
	}
	for t := 0; t < n; t++ {
		portOf[t*n+t] = int32(t*NumPorts + LocalPort)
		for d := topology.East; d <= topology.Up; d++ {
			nt, ok := mesh.Neighbor(topology.TileID(t), d)
			if !ok || linkOf[t*n+int(nt)] >= 0 {
				continue
			}
			li, ok := mesh.LinkIndex(topology.TileID(t), nt)
			if !ok {
				return nil, fmt.Errorf("wormhole: tiles %d and %d are not adjacent", t, nt)
			}
			portOf[t*n+int(nt)] = int32(t*NumPorts + int(d))
			linkOf[t*n+int(nt)] = int32(li)
		}
	}
	// compile appends one route's hop program: at each router the port
	// towards the next tile (the local port at the last one) and the link
	// it feeds. Route steps are adjacent tiles by construction.
	compile := func(tiles []topology.TileID) {
		for i, t := range tiles {
			next := t
			if i+1 < len(tiles) {
				next = tiles[i+1]
			}
			at := int(t)*n + int(next)
			s.prog = append(s.prog, hop{port: portOf[at], link: linkOf[at]})
		}
	}

	// Compiled route table, flattened. On the intact path route lengths
	// are K = MinHops+1, which sizes the backing array exactly before the
	// fill pass; fault-aware detours can be longer, so that total is only
	// a best-effort capacity hint there.
	s.routeOff = make([]int32, n*n+1)
	total := 0
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			total += mesh.MinHops(topology.TileID(a), topology.TileID(b)) + 1
		}
	}
	s.prog = make([]hop, 0, total)
	if fs.Empty() {
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				r, err := mesh.Route(cfg.Routing, topology.TileID(a), topology.TileID(b))
				if err != nil {
					return nil, err
				}
				compile(r.Tiles)
				s.routeOff[a*n+b+1] = int32(len(s.prog))
			}
		}
	} else {
		if fs.Mesh() != mesh {
			return nil, errors.New("wormhole: fault set belongs to a different mesh")
		}
		s.faults = fs
		s.unreach = make([]bool, n*n)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				r, err := mesh.RouteFault(cfg.Routing, fs, topology.TileID(a), topology.TileID(b))
				switch {
				case errors.Is(err, topology.ErrUnreachable):
					s.unreach[a*n+b] = true
				case err != nil:
					return nil, err
				default:
					compile(r.Tiles)
				}
				s.routeOff[a*n+b+1] = int32(len(s.prog))
			}
		}
	}
	s.initOnce = true
	return s, nil
}

// Faults returns the fault set the simulator's route table was built
// against, nil for an intact simulator.
func (s *Simulator) Faults() *topology.FaultSet { return s.faults }

// NewScratch allocates a fresh per-lane scratch sized for this simulator.
// Panics on a zero-value Simulator; construct with NewSimulator.
func (s *Simulator) NewScratch() *Scratch {
	if !s.initOnce {
		panic("wormhole: NewScratch on zero-value Simulator (use NewSimulator)")
	}
	n := s.numTiles
	np := s.G.NumPackets()
	return &Scratch{
		sim:         s,
		ports:       make([]busyList, n*NumPorts),
		links:       make([]busyList, s.Mesh.NumLinks()),
		coreOut:     make([]busyList, n),
		coreIn:      make([]busyList, n),
		routerSpans: make([]busyList, n),
		indeg:       make([]int, np),
		ready:       make([]int64, np),
		after:       make([]int64, np),
		tail:        make([]int64, np),
		seen:        make([]model.CoreID, n),
		packets:     make([]PacketSchedule, np),
		routerBits:  make([]int64, n),
		linkBits:    make([]int64, s.Mesh.NumLinks()),
	}
}

// Run simulates the CDCG under the given mapping and returns the
// schedule as an independent Result (safe to keep across runs). It uses
// a lazily-created internal scratch, so Run is not safe for concurrent
// use — parallel callers use NewScratch with RunScratch or RunFresh.
func (s *Simulator) Run(mp mapping.Mapping) (*Result, error) {
	if !s.initOnce {
		return nil, errors.New("wormhole: use NewSimulator")
	}
	if s.scratch == nil {
		s.scratch = s.NewScratch()
	}
	return s.RunFresh(mp, s.scratch)
}

// RunFresh simulates with the caller's scratch like RunScratch but
// returns an independent Result with fresh backing arrays, safe to keep
// across later runs. It is the concurrency-safe form of Run: lanes that
// occasionally need a durable Result (rendering snapshots, winner
// reports) call it on their own scratch without touching the shared
// internal one. Occupancies are recorded when either the scratch's or
// the simulator's RecordOccupancy flag is set; flip those before
// spinning up concurrent lanes.
func (s *Simulator) RunFresh(mp mapping.Mapping, sc *Scratch) (*Result, error) {
	if !s.initOnce {
		return nil, errors.New("wormhole: use NewSimulator")
	}
	if sc == nil || sc.sim != s {
		return nil, errors.New("wormhole: scratch is not from this simulator's NewScratch")
	}
	res := &Result{
		Packets:    make([]PacketSchedule, s.G.NumPackets()),
		RouterBits: make([]int64, s.numTiles),
		LinkBits:   make([]int64, s.Mesh.NumLinks()),
	}
	if _, _, err := s.run(sc, res, mp, sc.RecordOccupancy || s.RecordOccupancy, nil); err != nil {
		return nil, err
	}
	return res, nil
}

// RunScratch simulates the CDCG under the given mapping using the
// caller's scratch. It is the allocation-free hot path of the CDCM
// objective: in steady state (after the scratch's first few runs have
// grown its interval lists) a call performs no heap allocation. The
// returned Result is backed by the scratch and is only valid until the
// next RunScratch with the same scratch. Distinct scratches may run
// concurrently against one shared Simulator.
//nocvet:noalloc
func (s *Simulator) RunScratch(mp mapping.Mapping, sc *Scratch) (*Result, error) {
	res, _, err := s.RunCutoff(mp, sc, nil)
	return res, err
}

// RunCutoff is RunScratch against a texec limit: with a non-nil lim the
// run stops as soon as it proves that the mapping's texec reaches
// lim.Limit of its traffic. The proof is a running lower bound on texec,
// max(Delivered_p + after_p) over the packets delivered so far, where
// after_p is the contention-free dependence-DAG tail behind packet p;
// before the first packet it is the uncontended critical path. A cut
// run returns a nil Result and the number of packets simulated before
// the cut (0 when the critical path alone reached the limit); an uncut
// run returns exactly RunScratch's Result. A nil lim never cuts.
//nocvet:noalloc
func (s *Simulator) RunCutoff(mp mapping.Mapping, sc *Scratch, lim Limiter) (*Result, int, error) {
	if !s.initOnce {
		return nil, 0, errors.New("wormhole: use NewSimulator")
	}
	if sc == nil || sc.sim != s {
		return nil, 0, errors.New("wormhole: scratch is not from this simulator's NewScratch")
	}
	res := &sc.res
	res.Packets = sc.packets
	res.RouterBits = sc.routerBits
	res.LinkBits = sc.linkBits
	simulated, cut, err := s.run(sc, res, mp, sc.RecordOccupancy, lim)
	if err != nil || cut {
		return nil, simulated, err
	}
	return res, simulated, nil
}

// tails prices the contention-free dependence-DAG tail of every packet
// for a cutoff run: walking a topological order backwards, after[p] is
// the longest chain of successors behind p, each contributing its
// computation time plus its uncontended network time
// K·(tr+tl) + V·(tTSV−tl) + flits·tl — exactly what the run charges an
// unobstructed packet, which contention can only delay. It also returns
// the mapping's traffic totals and the uncontended critical path, the
// largest tail.
//nocvet:noalloc
func (s *Simulator) tails(sc *Scratch, mp mapping.Mapping) (Traffic, int64, error) {
	n := s.numTiles
	trl := s.Cfg.RoutingCycles + s.Cfg.LinkCycles
	vadj := s.Cfg.TSVCycles() - s.Cfg.LinkCycles
	var tr Traffic
	var lp int64
	for i := len(s.topo) - 1; i >= 0; i-- {
		p := int(s.topo[i])
		pkt := &s.G.Packets[p]
		ri := int(mp[pkt.Src])*n + int(mp[pkt.Dst])
		if s.unreach != nil && s.unreach[ri] {
			return Traffic{}, 0, ErrUnreachable
		}
		prog := s.prog[s.routeOff[ri]:s.routeOff[ri+1]]
		k, v := int64(len(prog)), int64(0)
		if s.vertLink != nil {
			for _, hp := range prog {
				if hp.link >= 0 && s.vertLink[hp.link] {
					v++
				}
			}
		}
		tr.RouterBits += pkt.Bits * k
		tr.LinkBits += pkt.Bits * (k - 1)
		tr.TSVBits += pkt.Bits * v
		tr.CoreBits += 2 * pkt.Bits
		var after int64
		for _, q := range s.dg.Succ(p) {
			after = max(after, sc.tail[q])
		}
		sc.after[p] = after
		sc.tail[p] = pkt.Compute + k*trl + v*vadj + s.flits[p]*s.Cfg.LinkCycles + after
		lp = max(lp, sc.tail[p])
	}
	return tr, lp, nil
}

// run is the simulation core shared by Run, RunScratch and RunCutoff:
// all mutable state lives in sc, all shared state on s is read-only, and
// the schedule is written into res (whose slices the caller sized). It
// returns the number of packets simulated and whether lim cut the run.
//nocvet:noalloc
func (s *Simulator) run(sc *Scratch, res *Result, mp mapping.Mapping, record bool, lim Limiter) (int, bool, error) {
	if len(mp) != s.G.NumCores() {
		return 0, false, fmt.Errorf("wormhole: mapping covers %d cores, CDCG has %d", len(mp), s.G.NumCores())
	}
	if err := mp.ValidateInto(s.numTiles, sc.seen); err != nil {
		return 0, false, err
	}
	limit := int64(math.MaxInt64)
	if lim != nil {
		t, lp, err := s.tails(sc, mp)
		if err != nil {
			return 0, false, err
		}
		//nocvet:ignore the limiter is the caller's pricing certificate; core's is itself //nocvet:noalloc and AllocsPerRun-pinned
		limit = lim.Limit(t)
		if lp >= limit {
			return 0, true, nil
		}
	}

	np := s.G.NumPackets()
	res.ExecCycles = 0
	res.CoreBits = 0
	res.TSVBits = 0
	res.TotalContention = 0
	res.occ = nil
	clear(res.RouterBits)
	clear(res.LinkBits)
	for i := range sc.ports {
		sc.ports[i].reset()
	}
	for i := range sc.links {
		sc.links[i].reset()
	}
	for i := range sc.coreOut {
		sc.coreOut[i].reset()
		sc.coreIn[i].reset()
	}
	if record {
		for i := range sc.routerSpans {
			sc.routerSpans[i].reset()
		}
	}
	copy(sc.indeg, s.baseIndeg)
	clear(sc.ready)
	sc.heap.a = append(sc.heap.a[:0], s.initHeap...)

	n := s.numTiles
	tr, tl := s.Cfg.RoutingCycles, s.Cfg.LinkCycles
	tlv := s.Cfg.TSVCycles() // per-flit vertical (TSV) hop time; unused on depth-1 grids
	arbLocal := s.Cfg.ArbitrateLocal
	bounded := s.Cfg.Buffers == noc.BuffersBounded
	scheduled := 0
	for sc.heap.len() > 0 {
		k := sc.heap.pop()
		p := int(k.id)
		pkt := &s.G.Packets[p]
		nFlits := s.flits[p]
		srcTile, dstTile := mp[pkt.Src], mp[pkt.Dst]
		ri := int(srcTile)*n + int(dstTile)
		if s.unreach != nil && s.unreach[ri] {
			// The mapping routes this packet across a faulted partition.
			// The sentinel is static so the noalloc hot path stays clean;
			// resilience scoring catches it and applies the documented
			// penalty instead of treating it as a failure.
			return scheduled, false, ErrUnreachable
		}
		prog := s.prog[s.routeOff[ri]:s.routeOff[ri+1]]

		linkHold := nFlits * tl
		portHold := tr + (nFlits-1)*tl
		// Vertical hops stream flits at the TSV rate: both the link
		// occupancy and the output port feeding it scale with tlv.
		vLinkHold := nFlits * tlv
		vPortHold := tr + (nFlits-1)*tlv

		// Plan pass: walk the route head-first, computing acquisition
		// times without booking anything (the hops of one packet touch
		// distinct resources, so peek-then-book is exact).
		sc.hops = sc.hops[:0]
		var contention int64
		h := k.start // header enters the source core's output link

		// Source core -> local router link. Core links are timed but not
		// arbitrated under the paper's CRG semantics (ArbitrateLocal
		// false); see noc.Config.ArbitrateLocal.
		t := s.plan(sc, &sc.coreOut[srcTile], h, linkHold, tl, arbLocal, false, record, k.id)
		contention += t - h
		h = t + tl

		// Routers (output-port arbitration) and the links they feed.
		var delivered int64
		for _, hp := range prog {
			arrival := h
			pi, li := int(hp.port), int(hp.link)
			tile := pi / NumPorts
			local := li < 0 // the destination's local (core) port
			// Resolve whether the outgoing link is a TSV before booking
			// the port: a port feeding a vertical link streams its flits
			// at the TSV rate, so its hold time follows the link's.
			vert := !local && s.vertLink != nil && s.vertLink[li]
			pHold, pRate := portHold, tl
			if vert {
				pHold, pRate = vPortHold, tlv
			}
			// Paper-faithful: the local output port is timed but not
			// arbitrated (Figure 3(b) shows overlapping deliveries). An
			// arbitrated unbounded booking after everything already
			// booked, the common case, appends inline; plan does the rest.
			if pl := &sc.ports[pi]; !bounded && h > pl.maxEnd && (!local || arbLocal) {
				t, pl.maxEnd = h, h+pHold
				//nocvet:ignore pl points into the scratch's port lists: the append grows scratch-owned capacity
				pl.iv = append(pl.iv, Occupancy{Packet: k.id, Start: h, End: pl.maxEnd})
			} else {
				t = s.plan(sc, pl, h, pHold, pRate, !local || arbLocal, true, record, k.id)
			}
			contention += t - h
			portEnd := t + pHold
			h = t + tr
			res.RouterBits[tile] += pkt.Bits
			if record {
				// Display span: from arrival (incl. buffer wait) to the
				// last flit leaving the router — the paper's annotation.
				sc.routerSpans[tile].iv = append(sc.routerSpans[tile].iv,
					Occupancy{Packet: k.id, Start: arrival, End: portEnd})
			}
			if !local {
				lHold, adv := linkHold, tl
				if vert {
					lHold, adv = vLinkHold, tlv
				}
				if ll := &sc.links[li]; !bounded && h > ll.maxEnd {
					t, ll.maxEnd = h, h+lHold
					//nocvet:ignore ll points into the scratch's link lists: the append grows scratch-owned capacity
					ll.iv = append(ll.iv, Occupancy{Packet: k.id, Start: h, End: ll.maxEnd})
				} else {
					t = s.plan(sc, ll, h, lHold, adv, true, false, record, k.id)
				}
				contention += t - h
				h = t + adv
				res.LinkBits[li] += pkt.Bits
				if vert {
					res.TSVBits += pkt.Bits
				}
			} else {
				// Local router -> destination core link; delivery is when
				// the last flit crosses it.
				t = s.plan(sc, &sc.coreIn[dstTile], h, linkHold, tl, arbLocal, false, record, k.id)
				contention += t - h
				delivered = t + linkHold
			}
		}
		s.applyBackpressure(sc, tl)
		// Commit pass: book every hop (including any backpressure
		// extensions) so later packets see the occupancy.
		for i := range sc.hops {
			hp := &sc.hops[i]
			hp.list.record(hp.t, hp.hold, k.id)
		}
		res.CoreBits += 2 * pkt.Bits

		res.Packets[p] = PacketSchedule{
			ID:         k.id,
			Ready:      k.start - pkt.Compute,
			Start:      k.start,
			Delivered:  delivered,
			Contention: contention,
			K:          len(prog),
			Flits:      nFlits,
		}
		res.TotalContention += contention
		if delivered > res.ExecCycles {
			res.ExecCycles = delivered
		}
		scheduled++
		// The cutoff: every successor chain of p still needs its
		// contention-free time after p's delivery.
		if delivered+sc.after[p] >= limit {
			return scheduled, true, nil
		}

		for _, succ := range s.dg.Succ(p) {
			if delivered > sc.ready[succ] {
				sc.ready[succ] = delivered
			}
			sc.indeg[succ]--
			if sc.indeg[succ] == 0 {
				sc.heap.push(pktKey{
					start: sc.ready[succ] + s.G.Packets[succ].Compute,
					id:    model.PacketID(succ),
				})
			}
		}
	}
	if scheduled != np {
		return scheduled, false, errors.New("wormhole: dependence deadlock (cyclic CDCG)")
	}

	if record {
		for i := range sc.routerSpans {
			sortOcc(sc.routerSpans[i].iv)
		}
		//nocvet:ignore trace recording is the diagnostic path (Run with record), never the annealer steady state
		res.occ = &occStore{
			routerSpans: snapshotAll(sc.routerSpans),
			ports:       snapshotAll(sc.ports),
			links:       snapshotAll(sc.links),
			coreOut:     snapshotAll(sc.coreOut),
			coreIn:      snapshotAll(sc.coreIn),
		}
	}
	return scheduled, false, nil
}

// sortOcc sorts occupancies by (Start, Packet) via insertion sort; display
// lists are short.
//nocvet:noalloc
func sortOcc(a []Occupancy) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0; j-- {
			if a[j].Start < a[j-1].Start ||
				(a[j].Start == a[j-1].Start && a[j].Packet < a[j-1].Packet) {
				a[j], a[j-1] = a[j-1], a[j]
			} else {
				break
			}
		}
	}
}

func snapshotAll(ls []busyList) []busyList {
	out := make([]busyList, len(ls))
	for i := range ls {
		out[i] = busyList{iv: ls[i].snapshot()}
	}
	return out
}

// pktKey orders packets by transmission start time, tie-broken by ID so
// runs are fully deterministic.
type pktKey struct {
	start int64
	id    model.PacketID
}

//nocvet:noalloc
func (a pktKey) less(b pktKey) bool {
	if a.start != b.start {
		return a.start < b.start
	}
	return a.id < b.id
}

// pktHeap is a binary min-heap of pktKey.
type pktHeap struct{ a []pktKey }

//nocvet:noalloc
func (h *pktHeap) len() int { return len(h.a) }

//nocvet:noalloc
func (h *pktHeap) push(k pktKey) {
	h.a = append(h.a, k)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.a[i].less(h.a[p]) {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

//nocvet:noalloc
func (h *pktHeap) pop() pktKey {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h.a) && h.a[l].less(h.a[m]) {
			m = l
		}
		if r < len(h.a) && h.a[r].less(h.a[m]) {
			m = r
		}
		if m == i {
			break
		}
		h.a[i], h.a[m] = h.a[m], h.a[i]
		i = m
	}
	return top
}

package search_test

import (
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mapping"
	"repro/internal/noc"
	"repro/internal/search"
	"repro/internal/topology"
)

// TestTieredCDCMScanZeroAllocs pins the tier-A hot path end to end: once
// the simulator's scratch is warm, a neighbourhood scan over the tiered
// CDCM — every candidate priced through the cutoff, whether cut at its
// start, cut part-way or simulated in full — allocates nothing.
func TestTieredCDCMScanZeroAllocs(t *testing.T) {
	mesh, err := topology.NewMesh(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := apps.ImageEncoder(12, 88, 110000)
	if err != nil {
		t.Fatal(err)
	}
	cdcm, err := core.NewCDCM(mesh, noc.Default(), energy.Tech007, g)
	if err != nil {
		t.Fatal(err)
	}
	lane := cdcm.Clone()
	p := search.Problem{Mesh: mesh, NumCores: g.NumCores(),
		Obj: &search.TieredObjective{Exact: lane, Cutoff: lane}}
	scan, res, err := search.ScanFrom(p, mapping.Identity(g.NumCores()))
	if err != nil {
		t.Fatal(err)
	}
	// +Inf cuts nothing, 0 (hill's threshold) cuts most candidates
	// part-way on this instance, and an improvement of a millijoule is
	// out of reach, so -1e-3 cuts every candidate at its start.
	thresholds := []float64{math.Inf(1), 0, -1e-3}
	for _, d := range thresholds { // warm the scratch
		if err := scan(d); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(6, func() {
		if err := scan(thresholds[i%len(thresholds)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("a tiered CDCM scan allocates %.1f objects, want 0", allocs)
	}
	if res.BoundSkips == 0 || res.ExactEvals <= 1 {
		t.Fatalf("the scans did not mix start cuts with simulations: %d skips, %d exact of %d",
			res.BoundSkips, res.ExactEvals, res.Evaluations)
	}
}

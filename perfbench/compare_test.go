package main

import "testing"

// The comparison must read spreads exactly as Python's
// statistics.quantiles(values, n=4) does.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, %g; want %g, %g, %g", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 102, 103, 104}
	for _, c := range []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"slower beyond bound", []float64{130, 131, 132, 133, 134}, "lower", "REGRESSION"},
		{"faster beyond noise", []float64{90, 91, 92, 93, 94}, "lower", "improvement"},
		{"same", []float64{100, 102, 101, 104, 103}, "lower", "within bound"},
		{"throughput fell beyond bound", []float64{70, 71, 72, 73, 74}, "higher", "REGRESSION"},
		{"noisy new side", []float64{60, 100, 140, 180, 220}, "lower", "unresolved"},
	} {
		if _, got := verdict(base, c.b, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
	if _, got := verdict(base, []float64{200, 200, 200}, "lower", -1); got != "worse" {
		t.Errorf("per-layer slowdown: verdict = %s, want worse", got)
	}
}

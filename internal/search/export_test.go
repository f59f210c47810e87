package search

import "repro/internal/mapping"

// ScanFrom binds a strict-improvement walk over p.Obj at initial, as
// HillClimber and Tabu do, and returns its neighbourhood scan at a given
// threshold and the Result its counters go to, for tests outside the
// package.
func ScanFrom(p Problem, initial mapping.Mapping) (func(bestD float64) error, *Result, error) {
	res := &Result{}
	w, err := p.startWalk(nil, initial, cutoffTier, res)
	if err != nil {
		return nil, nil, err
	}
	return func(bestD float64) error {
		_, err := w.bestSwap(nil, bestD, nil)
		return err
	}, res, nil
}

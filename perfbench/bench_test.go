package main

import (
	"math"
	"regexp"
	"testing"
)

// TestSmoke runs all four workloads at toy size, untraced and traced,
// and holds what they emit to BENCHMARK.json: every declared metric
// once, under its unit, and no failed operation.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			if trace && testing.Short() {
				continue
			}
			res, err := runOne(w.Name, 1, 0.5, trace, toySize)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			declared := spec.EndToEnd
			if trace {
				declared = spec.PerLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, trace, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || m.Unit == "" || !name.MatchString(m.Name) {
					t.Errorf("%s trace=%v: metric %q unit %q: emitted %v as %+v", w.Name, trace, m.Name, m.Unit, ok, got)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestSpread pins the quartile method to Python's
// statistics.quantiles(values, n=4), which the acceptance rule uses.
func TestSpread(t *testing.T) {
	got := spread([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

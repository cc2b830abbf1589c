package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"orthoq"
	"orthoq/internal/algebra"
	"orthoq/internal/sql/types"
)

// tinyRunner runs the experiments at the smallest useful scale, one
// timed repetition each.
func tinyRunner(t *testing.T, jsonOut bool) (*runner, *bytes.Buffer) {
	t.Helper()
	var out bytes.Buffer
	return &runner{w: &out, json: jsonOut, reps: 1, seed: 3}, &out
}

func TestRunFigure1Smoke(t *testing.T) {
	r, out := tinyRunner(t, false)
	if err := r.figure1(0.001); err != nil {
		t.Fatal(err)
	}
	for _, s := range lattice {
		if !strings.Contains(out.String(), s.name) {
			t.Errorf("figure1 output missing %q:\n%s", s.name, out)
		}
	}
}

func TestRunFigure8Smoke(t *testing.T) {
	r, out := tinyRunner(t, true)
	if err := r.figure8(0.001); err != nil {
		t.Fatal(err)
	}
	// One JSON line per (query, system): 11 queries under 7 systems.
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 11*len(systems) {
		t.Fatalf("figure8 -json emitted %d lines, want %d", len(lines), 11*len(systems))
	}
	var m measurement
	if err := json.Unmarshal([]byte(lines[0]), &m); err != nil {
		t.Fatal(err)
	}
	if m.Exp != "figure8" || m.Query != "Q1" || m.System != systems[0].name || m.SF != 0.001 || m.Median <= 0 {
		t.Errorf("first measurement = %+v", m)
	}
}

func TestRunFigure9Smoke(t *testing.T) {
	r, out := tinyRunner(t, false)
	if err := r.figure9("0.001, 0.002"); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "Figure 9"); got != 2 {
		t.Errorf("figure9 printed %d tables, want one per scale factor:\n%s", got, out)
	}
	if err := r.figure9("0.001,x"); err == nil {
		t.Error("figure9 accepted a malformed scale factor list")
	}
}

func TestRunAblationsSmoke(t *testing.T) {
	r, out := tinyRunner(t, false)
	if err := r.ablations(0.001); err != nil {
		t.Fatal(err)
	}
	for _, ab := range ablations {
		if !strings.Contains(out.String(), ab.name) {
			t.Errorf("ablation output missing %q:\n%s", ab.name, out)
		}
	}
}

// TestFigure1StrategiesAgree runs the lattice at another seed and
// threshold: measure fails unless every strategy, the three forced
// shapes included, returns the cost-based pick's bag.
func TestFigure1StrategiesAgree(t *testing.T) {
	r, _ := tinyRunner(t, false)
	r.seed = 9
	if err := r.open(0.001); err != nil {
		t.Fatal(err)
	}
	ms, err := r.measure("figure1", "Q1", figure1SQL(500), lattice...)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 7 || ms[0].Rows == 0 {
		t.Errorf("lattice measurements = %+v", ms)
	}
}

// TestAnswersAreChecked: a system whose answer differs from full
// optimization's fails the measurement before anything is timed.
func TestAnswersAreChecked(t *testing.T) {
	r, _ := tinyRunner(t, true)
	if err := r.open(0.001); err != nil {
		t.Fatal(err)
	}
	wrong := system{name: "first row only", rewrites: []rewrite{func(_ *algebra.Metadata, rel algebra.Rel) (algebra.Rel, bool) {
		return &algebra.Top{Input: rel, N: 1}, true
	}}}
	_, err := r.measure("figure1", "Q1", figure1SQL(1000), full, wrong)
	if err == nil || !strings.Contains(err.Error(), "answer differs") {
		t.Fatalf("measure = %v, want an answer mismatch", err)
	}
}

// TestSystemConfigsLadder pins the ladder — Figure 9 takes its first
// five systems, weakest to strongest — and that each ablation's two
// sides differ only in the technique it names: one Config field, two
// for eager aggregation (§3.1-3.2 reordering and §3.3 local aggregates).
func TestSystemConfigsLadder(t *testing.T) {
	if systems[0].name != "correlated-only" || systems[4].name != "full-optimization" {
		t.Errorf("ladder order: %s ... %s", systems[0].name, systems[4].name)
	}
	for _, ab := range ablations {
		with, without := reflect.ValueOf(ab.with.cfg), reflect.ValueOf(ab.without.cfg)
		var diff []string
		for i := 0; i < with.NumField(); i++ {
			f := with.Type().Field(i)
			if f.IsExported() && !reflect.DeepEqual(with.Field(i).Interface(), without.Field(i).Interface()) {
				diff = append(diff, f.Name)
			}
		}
		want := 1
		if ab.name == "groupby reordering (eager agg)" {
			want = 2
		}
		if len(diff) != want {
			t.Errorf("%s: with and without differ in %v, want %d field(s)", ab.name, diff, want)
		}
	}
}

func TestSameBag(t *testing.T) {
	row := func(vs ...types.Datum) orthoq.Row { return orthoq.Row(vs) }
	a := []orthoq.Row{row(types.NewInt(1), types.NewString("x"), types.NewFloat(1e6)),
		row(types.NewInt(2), types.Null(types.String), types.NewFloat(0.5))}
	for _, c := range []struct {
		name string
		b    []orthoq.Row
		want bool
	}{
		{"reordered", []orthoq.Row{a[1], a[0]}, true},
		{"float noise within 1e-6", []orthoq.Row{row(types.NewInt(1), types.NewString("x"), types.NewFloat(1e6+0.5)), a[1]}, true},
		{"float beyond 1e-6", []orthoq.Row{row(types.NewInt(1), types.NewString("x"), types.NewFloat(1e6+2)), a[1]}, false},
		{"int as float", []orthoq.Row{row(types.NewFloat(1), types.NewString("x"), types.NewFloat(1e6)), a[1]}, true},
		{"string differs", []orthoq.Row{row(types.NewInt(1), types.NewString("y"), types.NewFloat(1e6)), a[1]}, false},
		{"NULL against value", []orthoq.Row{a[0], row(types.NewInt(2), types.NewString("NULL"), types.NewFloat(0.5))}, false},
		{"a row short", a[:1], false},
		{"a row twice", []orthoq.Row{a[0], a[0]}, false},
	} {
		if got := sameBag(a, c.b); got != c.want {
			t.Errorf("%s: sameBag = %v, want %v", c.name, got, c.want)
		}
	}
}

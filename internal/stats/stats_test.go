package stats

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"orthoq/internal/sql/catalog"
	"orthoq/internal/sql/types"
	"orthoq/internal/storage"
)

func buildStore(t *testing.T, n int, f func(i int) types.Row) *storage.Store {
	t.Helper()
	st := storage.New(catalog.New())
	tbl, err := st.CreateTable(&catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "id", Type: types.Int},
			{Name: "grp", Type: types.Int},
			{Name: "val", Type: types.Float, Nullable: true},
			{Name: "name", Type: types.String},
		},
		Key: []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tbl.Insert(f(i)); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestCollectBasics(t *testing.T) {
	st := buildStore(t, 1000, func(i int) types.Row {
		var v types.Datum
		if i%10 == 0 {
			v = types.NullUnknown
		} else {
			v = types.NewFloat(float64(i))
		}
		return types.Row{
			types.NewInt(int64(i)), types.NewInt(int64(i % 7)), v,
			types.NewString([]string{"a", "b", "c"}[i%3]),
		}
	})
	c := Collect(st)
	ts := c.Table("t")
	if ts == nil {
		t.Fatal("no stats for t")
	}
	if ts.RowCount != 1000 {
		t.Errorf("rows = %d", ts.RowCount)
	}
	id := ts.Columns[0]
	if id.Distinct != 1000 || id.NullCount != 0 {
		t.Errorf("id: distinct=%d nulls=%d", id.Distinct, id.NullCount)
	}
	if id.Min.Int() != 0 || id.Max.Int() != 999 {
		t.Errorf("id range = [%v, %v]", id.Min, id.Max)
	}
	grp := ts.Columns[1]
	if grp.Distinct != 7 {
		t.Errorf("grp distinct = %d", grp.Distinct)
	}
	val := ts.Columns[2]
	if val.NullCount != 100 {
		t.Errorf("val nulls = %d", val.NullCount)
	}
	name := ts.Columns[3]
	if name.Distinct != 3 {
		t.Errorf("name distinct = %d", name.Distinct)
	}
	if len(name.Hist) != 0 {
		t.Error("strings must not get histograms")
	}
	if len(id.Hist) == 0 {
		t.Error("id should have a histogram")
	}
	// Case-insensitive lookup and missing table.
	if c.Table("T") == nil {
		t.Error("case-insensitive stats lookup failed")
	}
	if c.Table("nope") != nil {
		t.Error("missing table should be nil")
	}
}

func TestSelectivityLTAgainstTruth(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	vals := make([]int64, 5000)
	st := buildStore(t, 5000, func(i int) types.Row {
		v := int64(rnd.Intn(10000))
		vals[i] = v
		return types.Row{types.NewInt(int64(i)), types.NewInt(v),
			types.NewFloat(0), types.NewString("x")}
	})
	c := Collect(st)
	grp := &c.Table("t").Columns[1]
	for _, threshold := range []int64{0, 1000, 2500, 5000, 9000, 10000} {
		truth := 0
		for _, v := range vals {
			if v < threshold {
				truth++
			}
		}
		want := float64(truth) / 5000
		got := grp.SelectivityLT(types.NewInt(threshold), 5000)
		if diff := got - want; diff > 0.08 || diff < -0.08 {
			t.Errorf("LT(%d): got %.3f, truth %.3f", threshold, got, want)
		}
	}
}

func TestSelectivityEq(t *testing.T) {
	st := buildStore(t, 700, func(i int) types.Row {
		return types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 7)),
			types.NewFloat(0), types.NewString("x")}
	})
	c := Collect(st)
	grp := &c.Table("t").Columns[1]
	got := grp.SelectivityEq(700)
	if got < 0.13 || got > 0.15 { // 1/7 ≈ 0.143
		t.Errorf("eq selectivity = %.3f, want ~1/7", got)
	}
	// Degenerate column stats fall back to a default.
	empty := &ColumnStats{}
	if s := empty.SelectivityEq(0); s <= 0 || s > 1 {
		t.Errorf("degenerate eq = %v", s)
	}
}

func TestSmallTableNoHistogram(t *testing.T) {
	st := buildStore(t, 10, func(i int) types.Row {
		return types.Row{types.NewInt(int64(i)), types.NewInt(int64(i)),
			types.NewFloat(0), types.NewString("x")}
	})
	c := Collect(st)
	id := c.Table("t").Columns[0]
	if len(id.Hist) != 0 {
		t.Error("tiny tables should skip histograms")
	}
	// Interpolation fallback still gives sane numbers.
	got := id.SelectivityLT(types.NewInt(5), 10)
	if got < 0.3 || got > 0.8 {
		t.Errorf("interpolated LT = %v", got)
	}
}

// referenceProfile is the profile as it was computed before the typed
// sort keys: every non-string datum boxed and sorted in the datum
// order. profileColumn must agree with it field for field.
func referenceProfile(rows []types.Row, ord int) ColumnStats {
	cs := ColumnStats{}
	distinct := make(map[uint64]struct{})
	var vals []types.Datum
	for _, r := range rows {
		d := r[ord]
		if d.IsNull() {
			cs.NullCount++
			continue
		}
		distinct[d.Hash()] = struct{}{}
		if cs.Distinct == 0 {
			cs.Min, cs.Max = d, d
		} else {
			if types.Compare(d, cs.Min) < 0 {
				cs.Min = d
			}
			if types.Compare(d, cs.Max) > 0 {
				cs.Max = d
			}
		}
		cs.Distinct = int64(len(distinct))
		if d.Kind() != types.String {
			vals = append(vals, d)
		}
	}
	if len(vals) >= histBuckets*2 {
		sort.Slice(vals, func(i, j int) bool { return types.Compare(vals[i], vals[j]) < 0 })
		cs.rowsPerBucket = float64(len(vals)) / histBuckets
		for b := 1; b <= histBuckets; b++ {
			idx := int(float64(b)*cs.rowsPerBucket) - 1
			if idx >= len(vals) {
				idx = len(vals) - 1
			}
			cs.Hist = append(cs.Hist, vals[idx])
		}
	}
	return cs
}

// TestProfileMatchesReference: histograms, min/max, distinct and NULL
// counts are identical to the boxed-datum profile for every column
// kind, with NULLs, below and above the histogram threshold, and for a
// column mixing Int and Float (the datum-sort fallback).
func TestProfileMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	gens := map[string]func() types.Datum{
		"int":    func() types.Datum { return types.NewInt(int64(r.Intn(500) - 250)) },
		"float":  func() types.Datum { return types.NewFloat(float64(r.Intn(1000)) / 7) },
		"date":   func() types.Datum { return types.NewDate(int64(9000 + r.Intn(2000))) },
		"bool":   func() types.Datum { return types.NewBool(r.Intn(2) == 0) },
		"string": func() types.Datum { return types.NewString(fmt.Sprint(r.Intn(40))) },
		"mixed": func() types.Datum {
			if r.Intn(2) == 0 {
				return types.NewInt(int64(r.Intn(50)))
			}
			return types.NewFloat(float64(r.Intn(50)) + 0.5)
		},
	}
	for name, gen := range gens {
		for _, n := range []int{0, 10, histBuckets*2 - 1, histBuckets * 2, 1000} {
			rows := make([]types.Row, n)
			for i := range rows {
				d := gen()
				if r.Intn(10) == 0 {
					d = types.Null(d.Kind())
				}
				rows[i] = types.Row{d}
			}
			got, want := profileColumn(rows, 0), referenceProfile(rows, 0)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s column, %d rows:\n got  %+v\n want %+v", name, n, got, want)
			}
		}
	}
}

// TestTableLookup: statistics are found under the catalog's spelling of
// a table's name — which a mixed-case CREATE keeps — under its
// lower-case form and under any other casing, and the first two, the
// spellings plans carry and so the ones the optimizer's coster looks up
// per column, allocate nothing.
func TestTableLookup(t *testing.T) {
	st := storage.New(catalog.New())
	tbl, err := st.CreateTable(&catalog.Table{
		Name:    "LineItems",
		Columns: []catalog.Column{{Name: "id", Type: types.Int}},
		Key:     []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(types.Row{types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	c := Collect(st)
	want := c.Table("LineItems")
	if want == nil || want.RowCount != 1 {
		t.Fatalf("stats under the catalog's spelling = %+v", want)
	}
	for _, name := range []string{"lineitems", "LINEITEMS", "lineItems"} {
		if c.Table(name) != want {
			t.Errorf("Table(%q) missed", name)
		}
	}
	if c.Table("lineitem") != nil {
		t.Error("a different name found statistics")
	}
	for _, name := range []string{"LineItems", "lineitems"} {
		if n := testing.AllocsPerRun(100, func() { c.Table(name) }); n != 0 {
			t.Errorf("Table(%q) allocates %v times per call", name, n)
		}
	}
}

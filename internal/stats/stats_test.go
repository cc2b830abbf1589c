package stats

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"orthoq/internal/sql/catalog"
	"orthoq/internal/sql/types"
	"orthoq/internal/storage"
	"orthoq/internal/tpch"
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

// referenceProfile is the boxed profile: every non-NULL datum hashed
// into a set, every non-string datum boxed and sorted in the datum
// order. Collect must agree with it field for field (sameProfile).
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

// sameProfile is reflect.DeepEqual, except that a histogram bound may
// be 0 on one side and -0 on the other: a sort leaves unspecified
// which of the two equal values lands on a bound, and the estimates
// read a bound only through types.Compare.
func sameProfile(got, want ColumnStats) bool {
	if len(got.Hist) != len(want.Hist) {
		return false
	}
	for i, g := range got.Hist {
		w := want.Hist[i]
		if g != w && !(g.Kind() == types.Float && w.Kind() == types.Float && g.Float() == 0 && w.Float() == 0) {
			return false
		}
	}
	got.Hist, want.Hist = nil, nil
	return reflect.DeepEqual(got, want)
}

// checkCollect holds Collect over a whole store to referenceProfile
// over every column of every table.
func checkCollect(t *testing.T, st *storage.Store) {
	t.Helper()
	c := Collect(st)
	for _, schema := range st.Catalog.Tables() {
		tbl, _ := st.Table(schema.Name)
		rows := tbl.Version().AllRows()
		ts := c.Table(schema.Name)
		if ts == nil || ts.RowCount != int64(len(rows)) || len(ts.Columns) != len(schema.Columns) {
			t.Fatalf("%s: stats %+v for %d rows", schema.Name, ts, len(rows))
		}
		for ord, col := range schema.Columns {
			if got, want := ts.Columns[ord], referenceProfile(rows, ord); !sameProfile(got, want) {
				t.Errorf("%s.%s, %d rows:\n got  %+v\n want %+v", schema.Name, col.Name, len(rows), got, want)
			}
		}
	}
}

// storeOf builds a store holding one table t of the given columns and
// rows.
func storeOf(t *testing.T, cols []catalog.Column, rows []types.Row) *storage.Store {
	t.Helper()
	st := storage.New(catalog.New())
	tbl, err := st.CreateTable(&catalog.Table{Name: "t", Columns: cols, Key: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertAll(rows); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestProfileMatchesReference: histograms, min/max, distinct and NULL
// counts are identical to the boxed-datum profile for every column
// kind, with NULLs, below and above the histogram threshold, for a
// column holding NaNs and for one mixing Int and Float (both the
// datum-sort fallback).
func TestProfileMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	gens := map[string]struct {
		kind types.Kind
		gen  func() types.Datum
	}{
		"int":    {types.Int, func() types.Datum { return types.NewInt(int64(r.Intn(500) - 250)) }},
		"float":  {types.Float, func() types.Datum { return types.NewFloat(float64(r.Intn(1000)-500) / 7) }},
		"date":   {types.Date, func() types.Datum { return types.NewDate(int64(9000 + r.Intn(2000))) }},
		"bool":   {types.Bool, func() types.Datum { return types.NewBool(r.Intn(2) == 0) }},
		"string": {types.String, func() types.Datum { return types.NewString(fmt.Sprint(r.Intn(40))) }},
		"mixed": {types.Float, func() types.Datum {
			if r.Intn(2) == 0 {
				return types.NewInt(int64(r.Intn(50)))
			}
			return types.NewFloat(float64(r.Intn(50)) + 0.5)
		}},
		"nan": {types.Float, func() types.Datum {
			if r.Intn(20) == 0 {
				return types.NewFloat(math.NaN())
			}
			return types.NewFloat(float64(r.Intn(50)) - 25)
		}},
	}
	for name, g := range gens {
		for _, n := range []int{0, 10, histBuckets*2 - 1, histBuckets * 2, 1000} {
			rows := make([]types.Row, n)
			for i := range rows {
				d := g.gen()
				if r.Intn(10) == 0 {
					d = types.Null(d.Kind())
				}
				rows[i] = types.Row{types.NewInt(int64(i)), d}
			}
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) {
				checkCollect(t, storeOf(t, []catalog.Column{
					{Name: "id", Type: types.Int}, {Name: name, Type: g.kind, Nullable: true},
				}, rows))
			})
		}
	}
}

// TestCollectMatchesReferenceAcrossChunks: a table several gather
// chunks long, with NULLs on the chunk edges, an all-NULL column, a
// column whose first zero is -0 (so Min is -0, wherever 0 and -0 fall
// later) and one whose greatest value is a zero seen first as -0, a
// NaN column and an Int/Float mix (the boxed fallback), and Date,
// Bool and String columns; and an empty table and one too small for a
// histogram. At least four goroutines profile it, whatever the host.
func TestCollectMatchesReferenceAcrossChunks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	cols := []catalog.Column{
		{Name: "id", Type: types.Int},
		{Name: "edge", Type: types.Int, Nullable: true},
		{Name: "none", Type: types.Float, Nullable: true},
		{Name: "zmin", Type: types.Float},
		{Name: "zmax", Type: types.Float},
		{Name: "nan", Type: types.Float},
		{Name: "mixed", Type: types.Float},
		{Name: "day", Type: types.Date, Nullable: true},
		{Name: "flag", Type: types.Bool},
		{Name: "name", Type: types.String, Nullable: true},
		{Name: "big", Type: types.Int},
	}
	r := rand.New(rand.NewSource(5))
	negZero := math.Copysign(0, -1)
	row := func(i int) types.Row {
		edge := types.NewInt(int64(r.Intn(300)))
		if at := i % chunkRows; at == 0 || at == chunkRows-1 || r.Intn(7) == 0 {
			edge = types.Null(types.Int)
		}
		zmin := types.NewFloat(float64(r.Intn(100)+1) / 4)
		if i == 3 {
			zmin = types.NewFloat(negZero)
		} else if i > 3 && i%(chunkRows/2) == 0 {
			zmin = types.NewFloat(0)
		} else if i%97 == 0 {
			zmin = types.NewFloat(negZero)
		}
		zmax := types.NewFloat(-float64(r.Intn(100)+1) / 4)
		if i == 5 || i%89 == 0 {
			zmax = types.NewFloat(negZero)
		} else if i%61 == 0 {
			zmax = types.NewFloat(0)
		}
		nan := types.NewFloat(float64(r.Intn(1000)) / 8)
		if i%500 == 7 {
			nan = types.NewFloat(math.NaN())
		}
		mixed := types.NewFloat(float64(r.Intn(100)) + 0.5)
		if r.Intn(3) == 0 {
			mixed = types.NewInt(int64(r.Intn(100)))
		}
		day := types.NewDate(int64(8000 + r.Intn(3000)))
		if r.Intn(11) == 0 {
			day = types.Null(types.Date)
		}
		name := types.NewString(fmt.Sprintf("n%d", r.Intn(900)))
		if r.Intn(13) == 0 {
			name = types.Null(types.String)
		}
		// Ints past 2^53 that convert to one float64 hash alike, so
		// they are one value to the distinct count.
		big := types.NewInt(1<<60 + int64(r.Intn(64)))
		return types.Row{types.NewInt(int64(i)), edge, types.Null(types.Float), zmin, zmax,
			nan, mixed, day, types.NewBool(r.Intn(3) == 0), name, big}
	}
	for _, n := range []int{3*chunkRows + 17, histBuckets*2 - 1, 0} {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = row(i)
		}
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			st := storeOf(t, cols, rows)
			checkCollect(t, st)
			ts := Collect(st).Table("t")
			if n == 0 {
				return
			}
			if z := ts.Columns[3].Min; z.Float() != 0 || !math.Signbit(z.Float()) {
				t.Errorf("zmin's Min is %v, want the -0 seen first", z)
			}
			if z := ts.Columns[4].Max; z.Float() != 0 || !math.Signbit(z.Float()) {
				t.Errorf("zmax's Max is %v, want the -0 seen first", z)
			}
			if n > histBuckets*2 && len(ts.Columns[1].Hist) == 0 {
				t.Error("edge has no histogram")
			}
		})
	}
}

// TestCollectMatchesReferenceTPCH: every column of the TPC-H stores.
func TestCollectMatchesReferenceTPCH(t *testing.T) {
	for _, sf := range []float64{0.002, 0.01} {
		st, err := tpch.Generate(sf, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprint(sf), func(t *testing.T) { checkCollect(t, st) })
	}
}

// BenchmarkCollect profiles the TPC-H store at SF 0.01.
func BenchmarkCollect(b *testing.B) {
	st, err := tpch.Generate(0.01, 1)
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		Collect(st)
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

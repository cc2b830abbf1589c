package storage

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"orthoq/internal/sql/catalog"
	"orthoq/internal/sql/types"
)

func testSchema() *catalog.Table {
	return &catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "id", Type: types.Int},
			{Name: "grp", Type: types.Int},
			{Name: "val", Type: types.Float, Nullable: true},
		},
		Key: []int{0},
		Indexes: []catalog.Index{
			{Name: "t_pk", Cols: []int{0}, Unique: true, Ordered: true},
			{Name: "t_grp", Cols: []int{1}},
		},
	}
}

func newTestTable(t *testing.T, n int) *Table {
	t.Helper()
	st := New(catalog.New())
	tbl, err := st.CreateTable(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row := types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 7)), types.NewFloat(float64(i) / 2)}
		if err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	tbl.BuildIndexes()
	return tbl
}

func TestInsertValidation(t *testing.T) {
	st := New(catalog.New())
	tbl, err := st.CreateTable(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(types.Row{types.NewInt(1)}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := tbl.Insert(types.Row{types.Null(types.Int), types.NewInt(0), types.NewFloat(0)}); err == nil {
		t.Error("NULL in non-nullable column accepted")
	}
	if err := tbl.Insert(types.Row{types.NewString("x"), types.NewInt(0), types.NewFloat(0)}); err == nil {
		t.Error("type mismatch accepted")
	}
	if err := tbl.Insert(types.Row{types.NewInt(1), types.NewInt(0), types.Null(types.Float)}); err != nil {
		t.Errorf("NULL in nullable column rejected: %v", err)
	}
}

func TestDuplicateTable(t *testing.T) {
	st := New(catalog.New())
	if _, err := st.CreateTable(testSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := st.CreateTable(testSchema()); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, ok := st.Table("T"); !ok {
		t.Error("case-insensitive lookup failed")
	}
}

// seek is a reader of Lookup's contract: the matches among the rows
// the index covers, then the rows past the coverage whose index
// columns equal key, in ordinal order.
func seek(v *Version, index string, key []types.Datum, dst []int32) []int32 {
	ords, covered := v.Lookup(index, key, dst)
	var cols []int
	for _, idx := range v.Schema.Indexes {
		if idx.Name == index {
			cols = idx.Cols
		}
	}
rows:
	for ord, row := range v.AllRows()[covered:] {
		for i, d := range key {
			if !types.Equal(row[cols[i]], d) {
				continue rows
			}
		}
		ords = append(ords, int32(covered+ord))
	}
	return ords
}

func TestHashIndexLookup(t *testing.T) {
	tbl := newTestTable(t, 70)
	got, covered := tbl.Version().Lookup("t_grp", []types.Datum{types.NewInt(3)}, nil)
	if len(got) != 10 || covered != 70 {
		t.Fatalf("grp=3 lookup: got %d rows covering %d, want 10 covering 70", len(got), covered)
	}
	for _, ord := range got {
		if tbl.Rows[ord][1].Int() != 3 {
			t.Errorf("row %d has grp %v", ord, tbl.Rows[ord][1])
		}
	}
	if got, _ := tbl.Version().Lookup("t_grp", []types.Datum{types.NewInt(99)}, nil); len(got) != 0 {
		t.Errorf("missing key returned %d rows", len(got))
	}
}

func TestOrderedIndexLookup(t *testing.T) {
	tbl := newTestTable(t, 100)
	got, covered := tbl.Version().Lookup("t_pk", []types.Datum{types.NewInt(42)}, nil)
	if len(got) != 1 || tbl.Rows[got[0]][0].Int() != 42 || covered != 100 {
		t.Fatalf("pk lookup: got %v covering %d", got, covered)
	}
}

func TestLookupMatchesLinearScan(t *testing.T) {
	// Property-style test with random data: index lookups, plus a scan
	// of the rows past their coverage, agree with a linear scan filter.
	st := New(catalog.New())
	tbl, err := st.CreateTable(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		tbl.Insert(types.Row{types.NewInt(int64(i)), types.NewInt(int64(r.Intn(20))), types.NewFloat(r.Float64())})
	}
	tbl.BuildIndexes()
	for i := 500; i < 540; i++ {
		tbl.Insert(types.Row{types.NewInt(int64(i)), types.NewInt(int64(r.Intn(20))), types.NewFloat(r.Float64())})
	}
	for k := int64(0); k < 25; k++ {
		want := 0
		for _, row := range tbl.Rows {
			if row[1].Int() == k {
				want++
			}
		}
		got := seek(tbl.Version(), "t_grp", []types.Datum{types.NewInt(k)}, nil)
		if len(got) != want {
			t.Errorf("key %d: lookup %d rows, scan %d", k, len(got), want)
		}
	}
}

func TestCatalogValidation(t *testing.T) {
	c := catalog.New()
	bad := &catalog.Table{Name: "b", Columns: []catalog.Column{{Name: "x", Type: types.Int}}}
	if err := c.Add(bad); err == nil {
		t.Error("table without key accepted")
	}
	bad2 := &catalog.Table{Name: "b2", Columns: []catalog.Column{{Name: "x", Type: types.Int}}, Key: []int{5}}
	if err := c.Add(bad2); err == nil {
		t.Error("out-of-range key accepted")
	}
	bad3 := &catalog.Table{Name: "b3", Columns: []catalog.Column{
		{Name: "x", Type: types.Int}, {Name: "X", Type: types.Int}}, Key: []int{0}}
	if err := c.Add(bad3); err == nil {
		t.Error("duplicate column accepted")
	}
}

// TestIndexLookupMatchesScan holds Lookup on hash and ordered indexes,
// single- and multi-column, to a scan of the version: its covered
// matches, plus a scan of the rows past its coverage, are the ordinals
// of the rows whose index columns equal the key, in ascending order
// (as a set for a prefix), for keys present and absent, NULL, -0 and
// Int keys on a Float column, and every prefix of an ordered index's
// key — over a version no index was built for (coverage 0), and over
// one with rows appended after the build (coverage the built rows).
// Lookup answers no row past its coverage.
func TestIndexLookupMatchesScan(t *testing.T) {
	st := New(catalog.New())
	tbl, err := st.CreateTable(&catalog.Table{
		Name: "k",
		Columns: []catalog.Column{
			{Name: "a", Type: types.Int},
			{Name: "b", Type: types.Float, Nullable: true},
			{Name: "c", Type: types.String},
		},
		Key: []int{0}, // metadata only: storage enforces no uniqueness
		Indexes: []catalog.Index{
			{Name: "k_a", Cols: []int{0}},
			{Name: "k_b", Cols: []int{1}},
			{Name: "k_ac", Cols: []int{0, 2}},
			{Name: "k_ca", Cols: []int{2, 0}, Ordered: true},
			{Name: "k_b_ord", Cols: []int{1}, Ordered: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	floatKey := func() types.Datum {
		switch r.Intn(6) {
		case 0:
			return types.NullUnknown
		case 1:
			return types.NewFloat(math.Copysign(0, -1))
		case 2:
			return types.NewInt(int64(r.Intn(5)))
		}
		return types.NewFloat(float64(r.Intn(10)) / 2)
	}
	row := func() types.Row {
		return types.Row{types.NewInt(int64(r.Intn(40))), floatKey(), types.NewString(string(rune('p' + r.Intn(4))))}
	}
	for i := 0; i < 600; i++ {
		if err := tbl.Insert(row()); err != nil {
			t.Fatal(err)
		}
	}
	unbuilt := tbl.Version()
	tbl.BuildIndexes()
	for i := 0; i < 50; i++ {
		if err := tbl.Insert(row()); err != nil {
			t.Fatal(err)
		}
	}
	dst := []int32{-1, -2, -3}
	for i := 0; i < 4000; i++ {
		v := tbl.Version()
		if i%2 == 0 {
			v = unbuilt
		}
		probe := row()
		probe[0] = types.NewInt(int64(r.Intn(45))) // some absent
		for _, idx := range v.Schema.Indexes {
			// A hash index is probed with its full key; an ordered one
			// also with every shorter prefix.
			shortest := len(idx.Cols)
			if idx.Ordered {
				shortest = 1
			}
			for n := len(idx.Cols); n >= shortest; n-- {
				key := make([]types.Datum, n)
				for j, c := range idx.Cols[:n] {
					key[j] = probe[c]
				}
				var want []int32
			rows:
				for ord, br := range v.AllRows() {
					for j, c := range idx.Cols[:n] {
						if !types.Equal(br[c], key[j]) {
							continue rows
						}
					}
					want = append(want, int32(ord))
				}
				covered := 0
				if v != unbuilt {
					covered = 600
				}
				ords, got := v.Lookup(idx.Name, key, dst)
				if got != covered || slices.ContainsFunc(ords, func(o int32) bool { return o >= int32(got) }) {
					t.Fatalf("%s %v: lookup %v covering %d, want coverage %d", idx.Name, key, ords, got, covered)
				}
				dst = seek(v, idx.Name, key, ords)
				if n < len(idx.Cols) {
					// A prefix's matches come in the order of the
					// index's remaining columns.
					slices.Sort(dst)
				}
				if len(dst) != len(want) {
					t.Fatalf("%s %v: lookup %v, scan %v", idx.Name, key, dst, want)
				}
				for k := range want {
					if dst[k] != want[k] {
						t.Fatalf("%s %v: lookup %v, scan %v", idx.Name, key, dst, want)
					}
				}
			}
		}
	}
}

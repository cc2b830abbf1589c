package storage

import (
	"math"
	"math/rand"
	"slices"
	"sort"
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

// boxedLookup is Lookup as it stood before keys were compared typed:
// a hash index's bucket filtered with types.Equal, an ordered index's
// permutation binary-searched with types.Compare on every key
// column.
func boxedLookup(v *Version, name string, key []types.Datum) []int32 {
	var out []int32
	if hi, ok := v.hashIdx[name]; ok {
	rows:
		for _, ord := range hi.bucket(types.HashRow(key, []int{0, 1, 2}[:len(key)])) {
			for j, c := range hi.cols {
				if !types.Equal(hi.rows[ord][c], key[j]) {
					continue rows
				}
			}
			out = append(out, ord)
		}
		return out
	}
	oi := v.ordIdx[name]
	cmp := func(i int) int {
		for j, kd := range key {
			if c := types.Compare(oi.rows[oi.perm[i]][oi.cols[j]], kd); c != 0 {
				return c
			}
		}
		return 0
	}
	for i := sort.Search(len(oi.perm), func(i int) bool { return cmp(i) >= 0 }); i < len(oi.perm) && cmp(i) == 0; i++ {
		out = append(out, oi.perm[i])
	}
	return out
}

// TestTypedLookupMatchesBoxed holds the typed lookups to the boxed ones
// on the same keys: an ordered index searched over its typed leading
// column (Int, and Date under a composite key probed by prefix and in
// full), hash indexes compared typed (a Float column holding NaN and
// -0 among its values), and the fallbacks — a NULL key, Float keys
// (NaN, -0, fractions) into Int columns, an Int key into a Float column, and leading columns the typed copy cannot hold (a NULL,
// a Float value in an Int column). LookupBatch, fed the same keys as
// column vectors, answers what Lookup does key by key.
func TestTypedLookupMatchesBoxed(t *testing.T) {
	st := New(catalog.New())
	tbl, err := st.CreateTable(&catalog.Table{
		Name: "tk",
		Columns: []catalog.Column{
			{Name: "a", Type: types.Int},
			{Name: "d", Type: types.Date},
			{Name: "f", Type: types.Float},
			{Name: "n", Type: types.Int, Nullable: true},
			{Name: "m", Type: types.Int},
		},
		Key: []int{0},
		Indexes: []catalog.Index{
			{Name: "tk_a", Cols: []int{0}, Ordered: true},
			{Name: "tk_a_hash", Cols: []int{0}},
			{Name: "tk_da", Cols: []int{1, 0}, Ordered: true},
			{Name: "tk_f", Cols: []int{2}},
			{Name: "tk_fa", Cols: []int{2, 0}},
			{Name: "tk_n", Cols: []int{3}, Ordered: true},
			{Name: "tk_m", Cols: []int{4}, Ordered: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(33))
	for i := 0; i < 400; i++ {
		n := types.NewInt(int64(r.Intn(9)))
		if r.Intn(5) == 0 {
			n = types.Null(types.Int)
		}
		m := types.NewInt(int64(r.Intn(9)))
		if i == 17 {
			m = types.NewFloat(2.5) // a numeric column may hold either kind
		}
		f := float64(r.Intn(8)) / 2
		switch r.Intn(10) {
		case 0:
			f = math.Float64frombits(0xfff8000000000000) // a NaN
		case 1:
			f = math.Copysign(0, -1)
		}
		if err := tbl.Insert(types.Row{types.NewInt(int64(r.Intn(30))), types.NewDate(int64(9000 + r.Intn(6))),
			types.NewFloat(f), n, m}); err != nil {
			t.Fatal(err)
		}
	}
	tbl.BuildIndexes()
	v := tbl.Version()
	for name, typed := range map[string]bool{"tk_a": true, "tk_da": true, "tk_n": false, "tk_m": false} {
		if got := v.ordIdx[name].lead != nil; got != typed {
			t.Errorf("%s: typed leading column %v, want %v", name, got, typed)
		}
	}
	// A key generator draws from one kind per batch (mode 0 or 1), or
	// from both (mode 2): the batch lookup takes key columns of one kind.
	intKey := func(mode int) types.Datum {
		if mode == 2 {
			mode = r.Intn(2)
		}
		switch {
		case r.Intn(8) == 0:
			return types.Null(types.Int)
		case mode == 0:
			return types.NewInt(int64(r.Intn(34)))
		}
		switch r.Intn(4) {
		case 0:
			return types.NewFloat(math.NaN())
		case 1:
			return types.NewFloat(math.Copysign(0, -1))
		case 2:
			return types.NewFloat(float64(r.Intn(60)) / 2)
		}
		return types.NewFloat(float64(r.Intn(30)))
	}
	floatKey := func(mode int) types.Datum {
		if mode == 2 {
			mode = r.Intn(2)
		}
		switch {
		case r.Intn(6) == 0:
			return types.Null(types.Float)
		case mode == 1:
			return types.NewInt(int64(r.Intn(4)))
		case r.Intn(5) == 0:
			return types.NewFloat(math.Float64frombits(0x7ff8000000000001))
		}
		return types.NewFloat(float64(r.Intn(10)) / 2)
	}
	dateKey := func(int) types.Datum {
		if r.Intn(6) == 0 {
			return types.Null(types.Date)
		}
		return types.NewDate(int64(8999 + r.Intn(8)))
	}
	keyOf := map[string][]func(int) types.Datum{
		"tk_a": {intKey}, "tk_a_hash": {intKey}, "tk_da": {dateKey, intKey},
		"tk_f": {floatKey}, "tk_fa": {floatKey, intKey}, "tk_n": {intKey}, "tk_m": {intKey},
	}
	batches := 0
	for name, gens := range keyOf {
		for wi, width := range []int{len(gens), 1} {
			if wi == 1 && (len(gens) == 1 || v.hashIdx[name] != nil) {
				continue // a hash index is looked up with its full key
			}
			for mode := range 3 {
				var keys [][]types.Datum
				for range 100 {
					key := make([]types.Datum, width)
					for j := range key {
						key[j] = gens[j](mode)
					}
					keys = append(keys, key)
				}
				ks := KeyBatch{Cols: make([]types.Column, width)}
				for k := range keys {
					if k%3 == 0 {
						continue // not selected
					}
					ks.Sel = append(ks.Sel, k)
				}
				ks.Hash = make([]uint64, len(keys))
				for j := range ks.Cols {
					for k, key := range keys {
						if !ks.Cols[j].Append(key[j]) {
							ks.Cols[j] = types.Column{}
							break
						}
						ks.Hash[k] = types.HashRow(key, []int{0, 1}[:width])
					}
				}
				mixed := slices.ContainsFunc(ks.Cols, func(c types.Column) bool { return c.N != len(keys) })
				var dst []int32
				for _, key := range keys {
					want := boxedLookup(v, name, key)
					got, covered := v.Lookup(name, key, dst)
					if covered != 400 || !slices.Equal(got, want) {
						t.Fatalf("%s %v: typed lookup %v covering %d, boxed %v", name, key, got, covered, want)
					}
					dst = got
				}
				if mixed {
					continue // key columns of mixed kinds are looked up key by key
				}
				ords, ends, covered := v.LookupBatch(name, ks, nil, nil)
				if covered != 400 || len(ends) != len(ks.Sel) {
					t.Fatalf("%s: batch of %d keys answered %d covering %d", name, len(ks.Sel), len(ends), covered)
				}
				lo := int32(0)
				for k, ki := range ks.Sel {
					if want := boxedLookup(v, name, keys[ki]); !slices.Equal(ords[lo:ends[k]], want) {
						t.Fatalf("%s %v: batch lookup %v, boxed %v", name, keys[ki], ords[lo:ends[k]], want)
					}
					lo = ends[k]
				}
				batches++
			}
		}
	}
	if batches < 12 {
		t.Fatalf("only %d batches of one kind per key column", batches)
	}
}

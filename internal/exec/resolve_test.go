package exec

import (
	"math"
	"math/rand"
	"testing"

	"orthoq/internal/eval"
	"orthoq/internal/sql/types"
)

// rowGroups is the row-at-a-time group lookup that resolve replaced,
// as it stood before groups were resolved from key vectors (ungoverned
// part): a row is compared with the keys of its hash chain (newest
// first), and a miss makes the row's key a new group. It is the oracle
// of GroupBy's resolve and of the hash table's find-or-add.
type rowGroups struct {
	keys   []types.Row
	chains map[uint64][]int
}

func (o *rowGroups) find(row types.Row, ords []int) int {
	ident := make([]int, len(ords))
	for i := range ident {
		ident[i] = i
	}
	hk := types.HashRow(row, ords)
	chain := o.chains[hk]
	for i := len(chain) - 1; i >= 0; i-- {
		if types.EqualRows(o.keys[chain[i]], ident, row, ords) {
			return chain[i]
		}
	}
	if o.chains == nil {
		o.chains = map[uint64][]int{}
	}
	key := make(types.Row, 0, len(ords))
	for _, o := range ords {
		key = append(key, row[o])
	}
	o.chains[hk] = append(o.chains[hk], len(o.keys))
	o.keys = append(o.keys, key)
	return len(o.keys) - 1
}

// keyDomain draws the datums of one key column. Kinds that compare
// with each other share a domain (Int with Float); the others keep to
// one kind, as a column of a real plan does.
type keyDomain func(r *rand.Rand) types.Datum

func keyDomains(distinct int) []keyDomain {
	nullOr := func(r *rand.Rand, d types.Datum) types.Datum {
		if r.Intn(8) == 0 {
			return types.NullUnknown
		}
		return d
	}
	return []keyDomain{
		func(r *rand.Rand) types.Datum { return nullOr(r, types.NewInt(int64(r.Intn(distinct)))) },
		func(r *rand.Rand) types.Datum {
			switch r.Intn(8) {
			case 0:
				return types.NewFloat(math.Copysign(0, -1))
			case 1:
				return types.NewFloat(0)
			case 2:
				return types.NewFloat(math.NaN())
			}
			return nullOr(r, types.NewFloat(float64(r.Intn(distinct))/2))
		},
		// Equal Int and Float values; a batch mixing them is gathered in
		// the generic form.
		func(r *rand.Rand) types.Datum {
			v := r.Intn(distinct)
			if r.Intn(2) == 0 {
				return nullOr(r, types.NewInt(int64(v)))
			}
			return nullOr(r, types.NewFloat(float64(v)))
		},
		func(r *rand.Rand) types.Datum { return nullOr(r, types.NewDate(int64(9000+r.Intn(distinct)))) },
		func(r *rand.Rand) types.Datum { return nullOr(r, types.NewBool(r.Intn(2) == 0)) },
		func(r *rand.Rand) types.Datum {
			return nullOr(r, types.NewString(string(rune('a'+r.Intn(distinct%26+1)))+"x"))
		},
		func(*rand.Rand) types.Datum { return types.NullUnknown },
	}
}

// rowColumns is a ColumnSource over rows, built the way storage builds
// its columns, so resolve also reads key columns as views — and, for a
// column that stops at a kind change, falls back to the gather.
type rowColumns []types.Column

func newRowColumns(rows []types.Row, width int) rowColumns {
	cols := make(rowColumns, width)
	for ord := range cols {
		for _, r := range rows {
			if !cols[ord].Append(r[ord]) {
				break
			}
		}
	}
	return cols
}

func (c rowColumns) Column(ord, end int) *types.Column {
	if c[ord].N < end {
		return nil
	}
	return &c[ord]
}

// TestVecHashMatchesHashRow holds resolve's column-at-a-time key hash
// to types.HashRow bit for bit — spill routing hashes key rows — and
// its group assignment to the
// row-at-a-time lookup it replaced, over one to three key columns of
// Int, Float (with -0, NaN), equal Int/Float values, Date, Bool, String
// and NULL, read as gathered vectors and as stored-column views, under
// full and partial selections, with few groups and many.
func TestVecHashMatchesHashRow(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	const width, batch = 3, 96
	for trial := 0; trial < 300; trial++ {
		distinct := []int{2, 3, 40}[trial%3]
		doms := keyDomains(distinct)
		nKeys := 1 + r.Intn(3)
		ords := make([]int, nKeys)
		colDom := make([]keyDomain, width)
		for i := range colDom {
			colDom[i] = doms[r.Intn(len(doms))]
		}
		for i := range ords {
			ords[i] = r.Intn(width)
		}
		stored := make([]types.Row, 4*batch)
		for i := range stored {
			row := make(types.Row, width)
			for c := range row {
				row[c] = colDom[c](r)
			}
			stored[i] = row
		}
		src := newRowColumns(stored, width)

		tbl, oracle := newAggTable(nKeys, nil, 0), &rowGroups{}
		av := &aggVec{}
		for off := 0; off < len(stored); off += batch {
			rows := stored[off : off+batch]
			var sel []int
			if r.Intn(2) == 0 {
				for i := range rows {
					if r.Intn(3) > 0 {
						sel = append(sel, i)
					}
				}
			} else {
				sel = av.frame.Identity(len(rows))
			}
			if r.Intn(2) == 0 {
				av.frame.ResetStored(rows, nil, eval.Stored{Src: src, Off: off})
			} else {
				av.frame.Reset(rows, nil)
			}

			keys := av.keyVecs(ords, sel)
			hash := hashKeys(nil, keys, sel, len(rows))
			for _, ri := range sel {
				if want := types.HashRow(rows[ri], ords); hash[ri] != want {
					t.Fatalf("trial %d: row %v keys %v: vector hash %x, HashRow %x", trial, rows[ri], ords, hash[ri], want)
				}
			}

			got, err := tbl.resolve(av, rows, sel, ords)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(sel) {
				t.Fatalf("trial %d: resolve kept %d of %d rows without a budget", trial, len(got), len(sel))
			}
			for k, ri := range sel {
				if want := oracle.find(rows[ri], ords); int(av.gidx[k]) != want {
					t.Fatalf("trial %d: row %v keys %v: group %d, row lookup %d", trial, rows[ri], ords, av.gidx[k], want)
				}
			}
		}
		if tbl.ht.len() != len(oracle.keys) {
			t.Fatalf("trial %d: %d groups, row lookup %d", trial, tbl.ht.len(), len(oracle.keys))
		}
	}
}

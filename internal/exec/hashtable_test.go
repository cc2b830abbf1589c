package exec

import (
	"math/rand"
	"testing"

	"orthoq/internal/eval"
	"orthoq/internal/sql/types"
)

// eachBatch hands fn the rows in batches of random length, each under
// no selection or a random one, read as stored-column views (src set)
// or gathered from the rows.
func eachBatch(r *rand.Rand, rows []types.Row, src rowColumns, fn func(b *Batch)) {
	for off := 0; off < len(rows); {
		n := min(len(rows)-off, 1+r.Intn(BatchSize))
		var sel []int
		if r.Intn(2) == 0 {
			sel = []int{}
			for i := range n {
				if r.Intn(3) > 0 {
					sel = append(sel, i)
				}
			}
		}
		var b Batch
		if r.Intn(2) == 0 {
			b.setStored(rows[off:off+n], sel, eval.Stored{Src: src, Off: off})
		} else {
			b.set(rows[off:off+n], sel)
		}
		fn(&b)
		off += n
	}
}

// TestHashTableMatchesRowOracle holds the hash table, read through key
// vectors a batch at a time, to row-at-a-time definitions over one to
// three key columns of Int, Float (with -0 and NaN), equal Int/Float
// values, Date, Bool, String and NULL, 0 to 2 000 rows, views and
// gathers:
//   - every key hash is types.HashRow's;
//   - find-or-add numbers the distinct keys as the row lookup over hash
//     chains does (rowGroups), in first-seen order, and gives them back
//     as datums equal to the row's;
//   - a join table's candidates for a probe row are exactly the build
//     rows a nested loop over types.EqualRows pairs it with, in build
//     order, and none for a NULL key on either side. A key is found
//     among keys that hash alike, as in every hash join: a NaN, which
//     types.Equal calls equal to every number, finds only a NaN.
func TestHashTableMatchesRowOracle(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	const width = 3
	for trial := 0; trial < 240; trial++ {
		distinct := []int{2, 3, 40, 600}[trial%4]
		doms := keyDomains(distinct)
		colDom := make([]keyDomain, width)
		for i := range colDom {
			colDom[i] = doms[r.Intn(len(doms))]
		}
		gen := func(n int) []types.Row {
			rows := make([]types.Row, n)
			for i := range rows {
				rows[i] = make(types.Row, width)
				for c := range rows[i] {
					rows[i][c] = colDom[c](r)
				}
			}
			return rows
		}
		size := func() int { return []int{0, 1, 1 + r.Intn(100), r.Intn(2001)}[r.Intn(4)] }
		nKeys := 1 + r.Intn(3)
		lOrds, rOrds := make([]int, nKeys), make([]int, nKeys)
		for i := range rOrds {
			lOrds[i], rOrds[i] = r.Intn(width), r.Intn(width)
		}
		build, probe := gen(size()), gen(size())

		tbl := newHashTable(nKeys, r.Intn(64))
		jt := newJoinTable(nKeys, r.Intn(64))
		oracle := &rowGroups{}
		var kr keyReader
		var built []types.Row // the live build rows, in order
		eachBatch(r, build, newRowColumns(build, width), func(b *Batch) {
			kr.read(b, rOrds)
			for _, ri := range kr.sel {
				row := b.Rows[ri]
				if want := types.HashRow(row, rOrds); kr.hash[ri] != want {
					t.Fatalf("trial %d: row %v keys %v: hash %x, HashRow %x", trial, row, rOrds, kr.hash[ri], want)
				}
				e, _ := kr.findOrAdd(&tbl, ri)
				if want := oracle.find(row, rOrds); e != want {
					t.Fatalf("trial %d: row %v keys %v: entry %d, row lookup %d", trial, row, rOrds, e, want)
				}
				if got, want := kr.hasNull(ri), rowHasNullAt(row, rOrds); got != want {
					t.Fatalf("trial %d: row %v keys %v: NULL key %v, want %v", trial, row, rOrds, got, want)
				}
				if !kr.hasNull(ri) {
					jt.add(&kr, ri, row)
				}
				built = append(built, row)
			}
		})
		if tbl.len() != len(oracle.keys) {
			t.Fatalf("trial %d: %d entries, row lookup %d", trial, tbl.len(), len(oracle.keys))
		}
		for e, want := range oracle.keys {
			if got := tbl.appendKey(nil, e); !types.EqualRows(got, identOrds(nKeys), want, identOrds(nKeys)) {
				t.Fatalf("trial %d: entry %d key %v, want %v", trial, e, got, want)
			}
		}
		jt.seal()

		var cand []int32
		eachBatch(r, probe, newRowColumns(probe, width), func(b *Batch) {
			cand = jt.lookup(&kr, b, lOrds, cand)
			if len(cand) != b.Len() {
				t.Fatalf("trial %d: %d entries for %d live rows", trial, len(cand), b.Len())
			}
			for k := range b.Len() {
				lrow := b.Row(k)
				var want []types.Row
				for _, brow := range built {
					if !rowHasNullAt(lrow, lOrds) && !rowHasNullAt(brow, rOrds) &&
						types.HashRow(lrow, lOrds) == types.HashRow(brow, rOrds) &&
						types.EqualRows(lrow, lOrds, brow, rOrds) {
						want = append(want, brow)
					}
				}
				got := jt.cands(cand[k])
				same := len(got) == len(want)
				for i := 0; same && i < len(got); i++ {
					same = &got[i][0] == &want[i][0]
				}
				if !same {
					t.Fatalf("trial %d: probe %v keys %v/%v: %d candidates %v, nested loop %d %v",
						trial, lrow, lOrds, rOrds, len(got), got, len(want), want)
				}
			}
		})
	}
}

func identOrds(n int) []int {
	ords := make([]int, n)
	for i := range ords {
		ords[i] = i
	}
	return ords
}

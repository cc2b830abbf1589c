package exec

import (
	"math/bits"
	"slices"

	"orthoq/internal/eval"
	"orthoq/internal/sql/types"
)

// hashTable is the executor's one hash table: GroupBy's groups, a hash
// join's build keys (in memory and per Grace partition), SegmentApply's
// segments and EXCEPT ALL's counts are its entries. An entry is a
// distinct key under types.Equal, numbered in insertion order. Slots
// are open-addressed int32s (entry+1, 0 free) probed linearly; each
// entry keeps its key hash — types.HashRow's, which spill routing and
// the merge of partial tables also use — compared before the key and
// reused by a resize. Keys are probed a batch at a time from key
// vectors (findBatch), compared typed against the stored datums.
type hashTable struct {
	n      int           // key columns
	keys   []types.Datum // entry e's key is keys[e*n : e*n+n]
	hashes []uint64
	slots  []int32
	shift  uint // hash h starts probing at slot (h*fibMul)>>shift
}

// fibMul spreads a key hash over the slots (Fibonacci hashing): FNV's
// low bits vary little between small integers.
const fibMul = 0x9E3779B97F4A7C15

// collided marks a findBatch candidate whose key is not the row's.
const collided = -2

// newHashTable returns a table of nKeys key columns with room for
// sizeHint entries before its first resize.
func newHashTable(nKeys, sizeHint int) hashTable {
	t := hashTable{n: nKeys, keys: make([]types.Datum, 0, nKeys*sizeHint), hashes: make([]uint64, 0, sizeHint)}
	t.resize(max(16, 2*sizeHint))
	return t
}

func (t *hashTable) len() int { return len(t.hashes) }

// key returns entry e's key.
func (t *hashTable) key(e int) types.Row { return t.keys[e*t.n : (e+1)*t.n : (e+1)*t.n] }

// find returns the entry with hash h whose key eq accepts, or -1.
func (t *hashTable) find(h uint64, eq func(e int) bool) int {
	mask := len(t.slots) - 1
	for i := int((h * fibMul) >> t.shift); t.slots[i] != 0; i = (i + 1) & mask {
		if e := int(t.slots[i] - 1); t.hashes[e] == h && eq(e) {
			return e
		}
	}
	return -1
}

// findVec finds the key vectors' entries at ri (hash h).
func (t *hashTable) findVec(keys []*eval.Vec, ri int, h uint64) int {
	return t.find(h, func(e int) bool { return t.equal(e, keys, ri) })
}

// equal reports whether entry e's key equals the key vectors' entries
// at ri.
func (t *hashTable) equal(e int, keys []*eval.Vec, ri int) bool {
	for j, v := range keys {
		if !equalVec(&t.keys[e*t.n+j], v, ri) {
			return false
		}
	}
	return true
}

// equalVec is types.Equal(v's entry at ri, *d), typed when both are
// non-NULL values of one kind.
func equalVec(d *types.Datum, v *eval.Vec, ri int) bool {
	if d.Kind() == v.Kind && v.D == nil && !d.IsNull() && (v.Null == nil || !v.Null[ri]) {
		switch v.Kind {
		case types.Float:
			x, y := v.F[ri], d.Float()
			return x == y || x != x && y != y // types.Compare's equality: a NaN equals only a NaN
		case types.String:
			return v.S[ri] == d.Str()
		case types.Int, types.Date, types.Bool:
			return v.I[ri] == d.Int()
		}
	}
	return types.Equal(v.Datum(ri), *d)
}

// findBatch is findVec for every selected row: out[k] is the entry row
// sel[k]'s key equals, or -1. Each row's slots are probed for the first
// entry with its hash, those candidates are checked a key column at a
// time, and only a row whose candidate differs is looked up in full.
func (t *hashTable) findBatch(keys []*eval.Vec, sel []int, hash []uint64, out []int32) []int32 {
	out = slices.Grow(out[:0], len(sel))[:len(sel)]
	mask := len(t.slots) - 1
	for k, ri := range sel {
		h, e := hash[ri], int32(-1)
		for i := int((h * fibMul) >> t.shift); t.slots[i] != 0; i = (i + 1) & mask {
			if s := t.slots[i]; t.hashes[s-1] == h {
				e = s - 1
				break
			}
		}
		out[k] = e
	}
	differ := false
	for j, v := range keys {
		// A non-NULL Int or String column compares its payloads inline;
		// a mismatch, or any other column, goes through equalVec.
		ints := v.D == nil && v.Null == nil && v.Kind == types.Int
		strs := v.D == nil && v.Null == nil && v.Kind == types.String
		for k, ri := range sel {
			e := out[k]
			if e < 0 {
				continue
			}
			d := &t.keys[int(e)*t.n+j]
			if ints && d.Kind() == types.Int && !d.IsNull() && d.Int() == v.I[ri] ||
				strs && d.Kind() == types.String && !d.IsNull() && d.Str() == v.S[ri] {
				continue
			}
			if !equalVec(d, v, ri) {
				out[k], differ = collided, true
			}
		}
	}
	for k, e := range out {
		if differ && e == collided {
			out[k] = int32(t.findVec(keys, sel[k], hash[sel[k]]))
		}
	}
	return out
}

// addVec makes the key vectors' entries at ri (hash h) a new entry;
// the caller found no equal entry.
func (t *hashTable) addVec(keys []*eval.Vec, ri int, h uint64) int {
	for _, v := range keys {
		t.keys = append(t.keys, v.Datum(ri))
	}
	return t.insert(h)
}

// insert slots the entry whose key was just appended to keys.
func (t *hashTable) insert(h uint64) int {
	e := len(t.hashes)
	t.hashes = append(t.hashes, h)
	if 2*len(t.hashes) > len(t.slots) {
		t.resize(2 * len(t.slots))
	} else {
		t.place(e)
	}
	return e
}

// resize rebuilds the slots, at least n of them, from the stored hashes.
func (t *hashTable) resize(n int) {
	t.slots = make([]int32, 1<<bits.Len(uint(n-1)))
	t.shift = uint(65 - bits.Len(uint(len(t.slots))))
	for e := range t.hashes {
		t.place(e)
	}
}

func (t *hashTable) place(e int) {
	mask := len(t.slots) - 1
	i := int((t.hashes[e] * fibMul) >> t.shift)
	for ; t.slots[i] != 0; i = (i + 1) & mask {
	}
	t.slots[i] = int32(e + 1)
}

// hashKeys returns types.HashRow of every selected row's key,
// positionally, a key column at a time: a typed loop for an Int, Float
// or String column without NULLs, boxing the entries of any other.
func hashKeys(dst []uint64, keys []*eval.Vec, sel []int, n int) []uint64 {
	h := slices.Grow(dst[:0], n)[:n]
	for _, ri := range sel {
		h[ri] = types.HashSeed
	}
	for _, v := range keys {
		switch typed := v.D == nil && v.Null == nil; {
		case typed && v.Kind == types.Int:
			for _, ri := range sel {
				h[ri] = types.MixHash(h[ri], types.HashInt(v.I[ri]))
			}
		case typed && v.Kind == types.Float:
			for _, ri := range sel {
				h[ri] = types.MixHash(h[ri], types.HashFloat(v.F[ri]))
			}
		case typed && v.Kind == types.String:
			for _, ri := range sel {
				h[ri] = types.MixHash(h[ri], types.HashString(v.S[ri]))
			}
		default:
			for _, ri := range sel {
				h[ri] = types.MixHash(h[ri], v.Datum(ri).Hash())
			}
		}
	}
	return h
}

// keyReader reads the key columns of a batch — views of stored
// columns, or gathered from the rows — and hashes them. It belongs to
// one operator on one strand.
type keyReader struct {
	frame eval.VecFrame
	keys  []*eval.Vec
	hash  []uint64 // positional, as the vectors
	sel   []int    // the batch's live rows: sel[k] is live row k
}

// read loads the key columns at ords of b's live rows.
func (kr *keyReader) read(b *Batch, ords []int) {
	kr.frame.ResetStored(b.Rows, nil, b.src, b.off)
	kr.sel = b.Sel
	if kr.sel == nil {
		kr.sel = kr.frame.Identity(len(b.Rows))
	}
	kr.frame.Gather(ords, kr.sel)
	kr.keys = kr.keys[:0]
	for _, o := range ords {
		kr.keys = append(kr.keys, kr.frame.Column(o, kr.sel))
	}
	kr.hash = hashKeys(kr.hash, kr.keys, kr.sel, len(b.Rows))
}

// hasNull reports whether row ri's key holds a NULL (it joins nothing).
func (kr *keyReader) hasNull(ri int) bool {
	return slices.ContainsFunc(kr.keys, func(v *eval.Vec) bool { return v.NullAt(ri) })
}

// findOrAdd returns the entry of row ri's key, adding it when new.
func (kr *keyReader) findOrAdd(t *hashTable, ri int) (e int, added bool) {
	if e = t.findVec(kr.keys, ri, kr.hash[ri]); e >= 0 {
		return e, false
	}
	return t.addVec(kr.keys, ri, kr.hash[ri]), true
}

// joinTable is a hash join's build side: the build rows laid out
// contiguously per distinct key, in build order, so a probe row's
// candidates are one sub-slice. Rows with a NULL key are never added.
type joinTable struct {
	ht    hashTable
	rows  []types.Row
	start []int32 // sealed: entry e's rows are rows[start[e]:start[e+1]]
	ents  []int32 // building: the entry of rows[i]
	// grouped: ents never decreased, so the rows already lie per key.
	grouped bool
}

func newJoinTable(nKeys, sizeHint int) *joinTable {
	sizeHint = min(sizeHint, joinPresizeMax)
	return &joinTable{ht: newHashTable(nKeys, sizeHint), grouped: true,
		rows: make([]types.Row, 0, sizeHint), ents: make([]int32, 0, sizeHint)}
}

// add appends a build row whose key, not NULL, is read at ri.
func (jt *joinTable) add(kr *keyReader, ri int, row types.Row) {
	e, _ := kr.findOrAdd(&jt.ht, ri)
	if n := len(jt.ents); n > 0 && int32(e) < jt.ents[n-1] {
		jt.grouped = false
	}
	jt.rows = append(jt.rows, row)
	jt.ents = append(jt.ents, int32(e))
}

// seal lays the rows out per key (a stable counting sort on the entry)
// and ends the build.
func (jt *joinTable) seal() {
	n := jt.ht.len()
	jt.start = make([]int32, n+1)
	for _, e := range jt.ents {
		jt.start[e+1]++
	}
	for e := range n {
		jt.start[e+1] += jt.start[e]
	}
	if !jt.grouped {
		next := slices.Clone(jt.start[:n])
		rows := make([]types.Row, len(jt.rows))
		for i, e := range jt.ents {
			rows[next[e]] = jt.rows[i]
			next[e]++
		}
		jt.rows = rows
	}
	jt.ents = nil
}

// spillTo writes the resident build rows to bset, in build order, and
// empties the table.
func (jt *joinTable) spillTo(bset *spillSet) error {
	for i, row := range jt.rows {
		if err := bset.add(jt.ht.hashes[jt.ents[i]], row); err != nil {
			return err
		}
	}
	*jt = joinTable{}
	return nil
}

// lookup resolves b's live rows against the sealed table: dst[k] is the
// entry live row k's key equals, or -1 (no key equals it, or it holds a
// NULL: the table holds none). An empty table answers -1 for every row
// without reading a key.
func (jt *joinTable) lookup(kr *keyReader, b *Batch, ords []int, dst []int32) []int32 {
	if jt.ht.len() == 0 {
		dst = slices.Grow(dst[:0], b.Len())[:b.Len()]
		for k := range dst {
			dst[k] = -1
		}
		return dst
	}
	kr.read(b, ords)
	return jt.ht.findBatch(kr.keys, kr.sel, kr.hash, dst)
}

// cands returns the build rows of entry e (none for -1).
func (jt *joinTable) cands(e int32) []types.Row {
	if e < 0 {
		return nil
	}
	return jt.rows[jt.start[e]:jt.start[e+1]]
}

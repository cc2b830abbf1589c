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
// entry keeps its key hash — types.HashRow's, which spill routing also
// uses — compared before the key and
// reused by a resize. The keys are stored a column at a time, typed
// (keyCol), and probed a batch at a time from key vectors (findBatch),
// payload against payload.
type hashTable struct {
	cols   []keyCol // entry e's key is entry e of each column
	room   int      // the entries the typed payloads hold (growKeys)
	hint   int      // the entries the first payloads hold
	hashes []uint64
	slots  []int32
	shift  uint // hash h starts probing at slot (h*fibMul)>>shift
}

// keyCol is one key column of a table's entries: a types.Column while
// its non-NULL keys are of one kind, boxed in d from the first that is
// not.
type keyCol struct {
	types.Column
	d []types.Datum
}

// append adds d as the next entry; a payload started here makes room
// for room entries.
func (c *keyCol) append(d types.Datum, room int) {
	if c.d == nil && c.Kind == types.Unknown && !d.IsNull() {
		c.Kind = d.Kind()
		switch n := max(room, c.N+1); c.Kind {
		case types.Float:
			c.F = make([]float64, c.N, n)
		case types.String:
			c.S = make([]string, c.N, n)
		default:
			c.I = make([]int64, c.N, n)
		}
	}
	if c.d == nil {
		if c.Append(d) {
			return
		}
		c.d = make([]types.Datum, c.N, 2*c.N+1)
		for e := range c.d {
			c.d[e] = c.Datum(e)
		}
	}
	c.d = append(c.d, d)
}

// datum boxes entry e.
func (c *keyCol) datum(e int) types.Datum {
	if c.d != nil {
		return c.d[e]
	}
	return c.Datum(e)
}

// equal is types.Equal(v's entry at ri, entry e), comparing payloads
// when both sides are typed of one kind.
func (c *keyCol) equal(e int, v *eval.Vec, ri int) bool {
	if c.d != nil || v.D != nil || v.Kind != c.Kind {
		return types.Equal(v.Datum(ri), c.datum(e))
	}
	cn, vn := c.Kind == types.Unknown || c.Null != nil && c.Null[e], v.NullAt(ri)
	if cn || vn {
		return cn == vn
	}
	switch c.Kind {
	case types.Float:
		x, y := v.F[ri], c.F[e]
		return x == y || x != x && y != y // types.Compare's equality: a NaN equals only a NaN
	case types.String:
		return v.S[ri] == c.S[e]
	}
	return v.I[ri] == c.I[e]
}

// fibMul spreads a key hash over the slots (Fibonacci hashing): FNV's
// low bits vary little between small integers.
const fibMul = 0x9E3779B97F4A7C15

// collided marks a findBatch candidate whose key is not the row's.
const collided = -2

// newHashTable returns a table of nKeys key columns with room for
// sizeHint entries before its first resize.
func newHashTable(nKeys, sizeHint int) hashTable {
	t := hashTable{cols: make([]keyCol, nKeys), hint: sizeHint, hashes: make([]uint64, 0, sizeHint)}
	t.resize(max(16, 2*sizeHint))
	return t
}

func (t *hashTable) len() int { return len(t.hashes) }

// appendKey appends entry e's key to dst.
func (t *hashTable) appendKey(dst types.Row, e int) types.Row {
	for j := range t.cols {
		dst = append(dst, t.cols[j].datum(e))
	}
	return dst
}

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
		if !t.cols[j].equal(e, v, ri) {
			return false
		}
	}
	return true
}

// findBatch is findVec for every selected row: out[k] is the entry row
// sel[k]'s key equals, or -1. Each row's slots are probed for the first
// entry with its hash, those candidates are checked a key column at a
// time — payload against payload when the column and the vector are of
// one kind without NULLs — and only a row whose candidate differs is
// looked up in full.
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
		c := &t.cols[j]
		typed := c.d == nil && v.D == nil && v.Kind == c.Kind && c.Null == nil && v.Null == nil
		switch {
		case typed && (v.Kind == types.Int || v.Kind == types.Date || v.Kind == types.Bool):
			for k, ri := range sel {
				if e := out[k]; e >= 0 && c.I[e] != v.I[ri] {
					out[k], differ = collided, true
				}
			}
		case typed && v.Kind == types.String:
			for k, ri := range sel {
				if e := out[k]; e >= 0 && c.S[e] != v.S[ri] {
					out[k], differ = collided, true
				}
			}
		default:
			for k, ri := range sel {
				if e := out[k]; e >= 0 && !c.equal(int(e), v, ri) {
					out[k], differ = collided, true
				}
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
	t.growKeys()
	for j, v := range keys {
		t.cols[j].append(v.Datum(ri), t.room)
	}
	return t.insert(h)
}

// growKeys makes room for the next entry: when the payloads are full,
// every typed column moves to an array twice as long, the columns of one
// payload kind sharing one allocation, so a table of many key columns
// grows as often as one of a single column.
func (t *hashTable) growKeys() {
	if t.len() < t.room {
		return
	}
	n := max(8, t.hint, 2*t.room)
	var ni, nf, ns int
	for j := range t.cols {
		switch c := &t.cols[j]; {
		case c.d != nil || c.Kind == types.Unknown:
		case c.Kind == types.Float:
			nf++
		case c.Kind == types.String:
			ns++
		default:
			ni++
		}
	}
	ints, floats, strs := make([]int64, ni*n), make([]float64, nf*n), make([]string, ns*n)
	for j := range t.cols {
		switch c := &t.cols[j]; {
		case c.d != nil || c.Kind == types.Unknown:
		case c.Kind == types.Float:
			c.F, floats = append(floats[:0:n], c.F...), floats[n:]
		case c.Kind == types.String:
			c.S, strs = append(strs[:0:n], c.S...), strs[n:]
		default:
			c.I, ints = append(ints[:0:n], c.I...), ints[n:]
		}
	}
	t.room = n
}

// insert slots the entry whose key was just appended to the columns.
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
	kr.frame.ResetStored(b.Rows, nil, b.at)
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

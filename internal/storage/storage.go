// Package storage is the in-memory row store backing the engine. Each
// table holds its rows as []types.Row plus optional hash and ordered
// indexes declared in the catalog. The store is the engine's substrate:
// the execution engine scans and seeks through it, and the statistics
// module profiles it.
//
// Concurrency model (server mode): every table publishes an immutable
// Version — the row slice plus the index structures valid for it —
// through an atomic pointer. Readers load a Version once and see a
// frozen point-in-time state for as long as they hold it; writers
// (Insert, InsertAll, BuildIndexes) serialize on a per-table mutex,
// extend a private working slice, and publish a fresh Version in one
// atomic store. Published row prefixes share their backing array with
// the working slice — safe, because writers only ever append past the
// published length and never mutate published elements — so
// publication is O(1) and reads are lock-free. Store.Snapshot pins the
// current Version of every table, giving a transaction a consistent
// repeatable-read view of the whole database.
//
// Beside the rows a table keeps typed columns (types.Column) for the
// executor's vector kernels, built on first use and append-only like
// the rows, so every Version, snapshots included, reads a stable prefix
// of one shared set (Version.Column). They are never persisted.
package storage

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"orthoq/internal/sql/catalog"
	"orthoq/internal/sql/types"
)

// Version is one immutable published state of a table: a frozen row
// slice and the indexes built over (a prefix of) it. All methods are
// safe for concurrent use by any number of readers; nothing reachable
// from a Version is ever mutated after publication.
//
// Indexes cover the rows present at the last BuildIndexes (Analyze),
// and none of a table never analyzed. Storage supplies rows and
// leaves the rest to the reader: Lookup answers the matches among the
// rows its index covers and says how far that coverage reaches, and
// the reader examines the rows past it (the executor's seek runs its
// scan kernels over them); LookupBatch does the same for a batch of
// keys held as typed columns (an index-lookup Apply's outer rows). Both
// compare keys typed where a key and the stored values are of one
// kind, and as datums otherwise. An ordered index's permutation is
// served only while it covers every row (OrderedScan), and compile
// falls back to scan plus sort otherwise.
type Version struct {
	// Schema is the catalog schema of the table (immutable).
	Schema *catalog.Table

	id      uint64
	rows    []types.Row
	cols    *columns              // the table's typed columns, shared by its versions
	hashIdx map[string]*hashIndex // index name -> hash index
	ordIdx  map[string]*orderedIndex

	// lsn is the write-ahead-log sequence number of the journal record
	// whose application produced this version (0 when no journal is
	// attached). Because writers append to the journal and publish under
	// the same table lock, a table's publication order equals its LSN
	// order — which is what lets checkpoints record "this version
	// contains every record up to lsn" and recovery skip re-applying
	// them.
	lsn uint64
}

// versionIDs hands out process-unique identifiers for published
// versions. IDs are never reused, so (table name, version ID) pairs are
// exact equality tokens: two reads against the same ID are guaranteed
// to observe the same rows, and any write — however small — mints a
// fresh ID. The semantic result cache keys on these.
var versionIDs atomic.Uint64

// ID returns the version's process-unique identifier. A new ID is
// minted at every publication (insert batch, index rebuild, table
// creation), so equal IDs imply identical visible state.
func (v *Version) ID() uint64 { return v.id }

// LSN returns the journal sequence number of the record that produced
// this version (0 when the store has no journal attached).
func (v *Version) LSN() uint64 { return v.lsn }

// hashIndex maps a key hash to its bucket b, whose row ordinals are
// ords[starts[b]:starts[b+1]] in ascending order: one array for the
// whole index, and a bucket's ordinals read in sequence.
type hashIndex struct {
	cols    []int
	rows    []types.Row // rows the index was built over
	buckets map[uint64]uint32
	starts  []int32
	ords    []int32
}

type orderedIndex struct {
	cols []int
	rows []types.Row // rows the index was built over
	perm []int32     // row ordinals sorted by cols
	// lead, when the leading key column is an Int or Date column without
	// NULLs, is its values in permutation order: a key of that kind is
	// searched there, comparing int64s instead of datums.
	lead     []int64
	leadKind types.Kind
}

// newOrderedIndex sorts the ordinals of rows by cols (types.Compare,
// stable) and copies the leading column out typed when it can.
func newOrderedIndex(cols []int, rows []types.Row) *orderedIndex {
	oi := &orderedIndex{cols: cols, rows: rows, perm: make([]int32, len(rows))}
	for i := range oi.perm {
		oi.perm[i] = int32(i)
	}
	sort.SliceStable(oi.perm, func(a, b int) bool {
		ra, rb := rows[oi.perm[a]], rows[oi.perm[b]]
		for _, c := range cols {
			if cmp := types.Compare(ra[c], rb[c]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	if len(rows) == 0 {
		return oi
	}
	kind := rows[oi.perm[0]][cols[0]].Kind()
	if kind != types.Int && kind != types.Date {
		return oi
	}
	lead := make([]int64, len(oi.perm))
	for i, o := range oi.perm {
		d := rows[o][cols[0]]
		if d.IsNull() || d.Kind() != kind {
			return oi
		}
		lead[i] = d.Int()
	}
	oi.lead, oi.leadKind = lead, kind
	return oi
}

// newHashIndex buckets rows by the hash of their cols with a counting
// sort, buckets numbered in order of first appearance.
func newHashIndex(cols []int, rows []types.Row) *hashIndex {
	hi := &hashIndex{cols: cols, rows: rows, buckets: make(map[uint64]uint32),
		starts: []int32{0, 0}, ords: make([]int32, len(rows))}
	of := make([]uint32, len(rows))
	for i, r := range rows {
		h := types.HashRow(r, cols)
		b, ok := hi.buckets[h]
		if !ok {
			b = uint32(len(hi.buckets))
			hi.buckets[h] = b
			hi.starts = append(hi.starts, 0)
		}
		of[i] = b
		hi.starts[b+2]++ // counts, shifted by two for the fill below
	}
	for b := 2; b < len(hi.starts); b++ {
		hi.starts[b] += hi.starts[b-1]
	}
	for i, b := range of { // starts[b+1] is bucket b's next free slot
		hi.ords[hi.starts[b+1]] = int32(i)
		hi.starts[b+1]++
	}
	return hi
}

// AllRows exposes the version's rows. The slice and its elements are
// immutable; callers must not modify them.
func (v *Version) AllRows() []types.Row { return v.rows }

// RowCount returns the number of rows in this version.
func (v *Version) RowCount() int { return len(v.rows) }

// Lookup appends to dst[:0] the ordinals of the rows the named index
// covers whose leading index columns equal the given key datums, and
// returns them with that coverage: the index covers rows [0, covered),
// those present at its last build — none when it was never built. The
// key covers every column of a hash index and may be a prefix of an
// ordered index's columns. The rows past the coverage are the caller's
// to examine: the covered matches plus the rows of rows[covered:] that
// hold the key are every row of this version that does.
//
// An ordered index whose leading column is an Int or Date column
// without NULLs is searched over a typed copy of that column when the
// key's first datum is of its kind; a NULL key, or a key of another
// kind (a Float looked up in an Int column), is compared as a datum
// (types.Compare), with the same matches.
func (v *Version) Lookup(indexName string, key []types.Datum, dst []int32) (ords []int32, covered int) {
	if hi, ok := v.hashIdx[indexName]; ok {
		h := uint64(types.HashSeed)
		for _, d := range key {
			h = types.MixHash(h, d.Hash())
		}
		ords = dst[:0]
	rows:
		for _, ord := range hi.bucket(h) {
			r := hi.rows[ord]
			for j, c := range hi.cols {
				if !types.Equal(r[c], key[j]) {
					continue rows
				}
			}
			ords = append(ords, ord)
		}
		return ords, len(hi.rows)
	}
	if oi, ok := v.ordIdx[indexName]; ok {
		return oi.lookup(key, dst[:0]), len(oi.rows)
	}
	return dst[:0], 0
}

// KeyBatch is a batch of index keys in column form, as a vectorized
// reader holds them: key k is entry Sel[k] of every column of Cols
// (Cols[j] holding the keys' j-th datums, in index order), and
// Hash[Sel[k]] is its types.HashRow, which a hash index probes with.
type KeyBatch struct {
	Cols []types.Column
	Sel  []int
	Hash []uint64
}

// LookupBatch is Lookup for every key of ks in one call: key k's
// covered matches are appended to dst[:0] as ords[ends[k-1]:ends[k]]
// (from 0 for k = 0), in the order Lookup returns them, and ends is
// built in ends[:0]. The coverage is Lookup's. A hash index's rows are
// compared with a key typed when their values are of one kind, and as
// datums (types.Equal) otherwise.
func (v *Version) LookupBatch(indexName string, ks KeyBatch, dst, ends []int32) (ords, kends []int32, covered int) {
	ords, ends = dst[:0], ends[:0]
	if hi, ok := v.hashIdx[indexName]; ok {
		for _, ri := range ks.Sel {
		rows:
			for _, ord := range hi.bucket(ks.Hash[ri]) {
				r := hi.rows[ord]
				for j, c := range hi.cols {
					if !equalEntry(&r[c], &ks.Cols[j], ri) {
						continue rows
					}
				}
				ords = append(ords, ord)
			}
			ends = append(ends, int32(len(ords)))
		}
		return ords, ends, len(hi.rows)
	}
	oi, ok := v.ordIdx[indexName]
	if !ok {
		for range ks.Sel {
			ends = append(ends, 0)
		}
		return ords, ends, 0
	}
	key := make([]types.Datum, len(ks.Cols))
	for _, ri := range ks.Sel {
		for j := range ks.Cols {
			key[j] = ks.Cols[j].Datum(ri)
		}
		ords = oi.lookup(key, ords)
		ends = append(ends, int32(len(ords)))
	}
	return ords, ends, len(oi.rows)
}

// bucket returns the ordinals of the indexed rows whose key hashes to
// h, ascending.
func (hi *hashIndex) bucket(h uint64) []int32 {
	b, ok := hi.buckets[h]
	if !ok {
		return nil
	}
	return hi.ords[hi.starts[b]:hi.starts[b+1]]
}

// equalEntry is types.Equal(*d, c's row ri), typed when both are values
// of one kind.
func equalEntry(d *types.Datum, c *types.Column, ri int) bool {
	if d.Kind() == c.Kind && !d.IsNull() && (c.Null == nil || !c.Null[ri]) {
		switch c.Kind {
		case types.Int, types.Date, types.Bool:
			return d.Int() == c.I[ri]
		case types.String:
			return d.Str() == c.S[ri]
		case types.Float:
			x, y := d.Float(), c.F[ri]
			return x == y || x != x && y != y // types.Compare's equality: a NaN equals only a NaN
		}
	}
	return types.Equal(*d, c.Datum(ri))
}

// cmp compares the key columns from..len(key) of the row at permutation
// position i with key's datums there, in the permutation's order.
func (oi *orderedIndex) cmp(i int, key []types.Datum, from int) int {
	r := oi.rows[oi.perm[i]]
	for j := from; j < len(key); j++ {
		if c := types.Compare(r[oi.cols[j]], key[j]); c != 0 {
			return c
		}
	}
	return 0
}

// lookup appends the ordinals of the indexed rows whose leading key
// columns are key, in permutation order. A key whose first datum is of
// the typed leading column's kind narrows the search to that datum's
// run of lead first; the rest of the key is searched inside the run.
func (oi *orderedIndex) lookup(key []types.Datum, out []int32) []int32 {
	lo, hi, from := 0, len(oi.perm), 0
	if k := key[0]; oi.lead != nil && k.Kind() == oi.leadKind && !k.IsNull() {
		lo, _ = slices.BinarySearch(oi.lead, k.Int())
		for hi = lo; hi < len(oi.lead) && oi.lead[hi] == k.Int(); hi++ {
		}
		if len(key) == 1 {
			return append(out, oi.perm[lo:hi]...)
		}
		from = 1
	}
	lo += sort.Search(hi-lo, func(i int) bool { return oi.cmp(lo+i, key, from) >= 0 })
	for i := lo; i < hi && oi.cmp(i, key, from) == 0; i++ {
		out = append(out, oi.perm[i])
	}
	return out
}

// OrderedScan returns the full permutation of row ordinals sorted by
// the named ordered index's columns (ascending), or false when the
// index is absent or stale. An index is stale when rows were inserted
// after the last BuildIndexes: those rows are visible to scans but not
// covered by the index, so walking the permutation would silently drop
// them. The returned slice is shared and immutable; callers must not
// modify it.
func (v *Version) OrderedScan(indexName string) ([]int32, bool) {
	oi, ok := v.ordIdx[indexName]
	if !ok || len(oi.rows) != len(v.rows) {
		return nil, false
	}
	return oi.perm, true
}

// Column returns column ord in typed form holding at least this
// version's first end rows, or nil when one of them does not fit its
// kind (types.Column.Append). The column is built on first use and
// extended by newer versions' rows, never written below a published
// length; callers must not modify it.
func (v *Version) Column(ord, end int) *types.Column {
	if v.cols == nil || end > len(v.rows) {
		return nil
	}
	if c := v.cols.extend(ord, v.rows); c.N >= end {
		return &c.Column
	}
	return nil
}

// columns is the typed form of a table's rows, one storedColumn per
// schema column, shared by every Version the table publishes.
type columns struct {
	mu   sync.Mutex // serializes extensions
	cols []atomic.Pointer[storedColumn]
}

// storedColumn is one published state of a column: its first N rows
// converted, and stopped when row N did not fit its kind.
type storedColumn struct {
	types.Column
	stopped bool
}

// extend returns column ord covering rows, or stopped short of them: a
// new state appends the missing rows past the old one's length.
func (cs *columns) extend(ord int, rows []types.Row) *storedColumn {
	p := &cs.cols[ord]
	covers := func(c *storedColumn) bool { return c != nil && (c.stopped || c.N >= len(rows)) }
	if c := p.Load(); covers(c) {
		return c
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	c := p.Load()
	if covers(c) {
		return c
	}
	next := &storedColumn{}
	if c != nil {
		*next = *c
	}
	next.stopped = !next.AppendColumn(rows[next.N:], ord)
	p.Store(next)
	return next
}

// Table is the stored form of one catalog table: a writer side (the
// working row slice, guarded by mu) and the atomically published
// current Version read by queries.
type Table struct {
	Schema *catalog.Table

	// Rows is the writer's working slice. It is exported for
	// single-threaded tooling and tests; concurrent readers must go
	// through Version()/AllRows() instead, which return the published
	// immutable state. Writers (Insert, InsertAll, BuildIndexes)
	// serialize on mu and republish after every mutation, appending only.
	Rows []types.Row
	cols *columns

	// store points back at the owning Store, through which the table
	// reaches the attached journal (nil for tables of a store without
	// one).
	store *Store

	mu  sync.Mutex
	cur atomic.Pointer[Version]
}

func newTable(s *Store, schema *catalog.Table, lsn uint64) *Table {
	t := &Table{Schema: schema, store: s,
		cols: &columns{cols: make([]atomic.Pointer[storedColumn], len(schema.Columns))}}
	t.cur.Store(&Version{Schema: schema, id: versionIDs.Add(1), cols: t.cols, lsn: lsn})
	return t
}

// journal returns the store's attached journal (nil when none).
func (t *Table) journal() Journal {
	if t.store == nil {
		return nil
	}
	return t.store.journal()
}

// Version returns the current published version of the table. The
// result is immutable: loading it once and using it for a whole query
// yields repeatable reads regardless of concurrent inserts.
func (t *Table) Version() *Version {
	return t.cur.Load()
}

// publish freezes the current working slice (plus the given indexes)
// as the new published version. Callers must hold t.mu. The published
// prefix aliases the working array — writers only append past the
// published length, so readers of the frozen prefix never observe a
// mutation.
func (t *Table) publish(hashIdx map[string]*hashIndex, ordIdx map[string]*orderedIndex, lsn uint64) {
	v := &Version{
		Schema:  t.Schema,
		id:      versionIDs.Add(1),
		rows:    t.Rows[:len(t.Rows):len(t.Rows)],
		cols:    t.cols,
		hashIdx: hashIdx,
		ordIdx:  ordIdx,
		lsn:     lsn,
	}
	t.cur.Store(v)
}

// checkRows validates every row's arity and types against the schema
// (checkRow), whichever way the rows arrive: an insert, a checkpoint
// load or a log replay.
func (t *Table) checkRows(rows []types.Row) error {
	for _, r := range rows {
		if err := t.checkRow(r); err != nil {
			return err
		}
	}
	return nil
}

// checkRow validates arity and types against the schema. NULLs are
// rejected in non-nullable columns.
func (t *Table) checkRow(row types.Row) error {
	if len(row) != len(t.Schema.Columns) {
		return fmt.Errorf("storage: table %s expects %d columns, got %d",
			t.Schema.Name, len(t.Schema.Columns), len(row))
	}
	for i, d := range row {
		col := t.Schema.Columns[i]
		if d.IsNull() {
			if !col.Nullable {
				return fmt.Errorf("storage: NULL in non-nullable column %s.%s", t.Schema.Name, col.Name)
			}
			continue
		}
		if d.Kind() != col.Type && !(d.Kind().Numeric() && col.Type.Numeric()) {
			return fmt.Errorf("storage: column %s.%s wants %s, got %s",
				t.Schema.Name, col.Name, col.Type, d.Kind())
		}
	}
	return nil
}

// Insert appends a row after validating arity and types, publishing
// the new state atomically.
func (t *Table) Insert(row types.Row) error {
	return t.InsertAll([]types.Row{row})
}

// InsertAll bulk-inserts rows, stopping before the first invalid row
// (all-or-nothing: a failed batch publishes no rows). The batch
// becomes visible to readers in a single publication — a concurrent
// snapshot sees either none or all of it.
func (t *Table) InsertAll(rows []types.Row) error {
	return t.InsertAllThen(rows, nil)
}

// InsertAllThen is InsertAll with a post-publish hook that runs while
// the writer lock is still held, so the hook's effects (e.g. the DB
// layer's stats-epoch bump) and the row publication form one atomic
// step with respect to other writers: no second writer can publish in
// between.
//
// With a journal attached, the batch is write-ahead logged — and the
// log write acknowledged per the journal's sync policy — before any
// in-memory state changes. A journal error aborts the insert with
// nothing published: the write was never acknowledged, so recovery
// owes it nothing.
func (t *Table) InsertAllThen(rows []types.Row, then func(total int)) error {
	if err := t.checkRows(rows); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	prev := t.cur.Load()
	lsn := prev.lsn
	if j := t.journal(); j != nil {
		var err error
		if lsn, err = j.LogInsert(t.Schema.Name, rows); err != nil {
			return err
		}
	}
	t.Rows = append(t.Rows, rows...)
	t.publish(prev.hashIdx, prev.ordIdx, lsn)
	if then != nil {
		then(len(t.Rows))
	}
	return nil
}

// BuildIndexes (re)builds all indexes declared in the schema over the
// current rows and publishes the indexed version. Call after bulk
// load; loading then indexing is how the TPC-H generator populates the
// store.
func (t *Table) BuildIndexes() {
	t.mu.Lock()
	defer t.mu.Unlock()
	frozen := t.Rows[:len(t.Rows):len(t.Rows)]
	hashIdx := make(map[string]*hashIndex)
	ordIdx := make(map[string]*orderedIndex)
	for _, decl := range t.Schema.Indexes {
		if decl.Ordered {
			ordIdx[decl.Name] = newOrderedIndex(decl.Cols, frozen)
		} else {
			hashIdx[decl.Name] = newHashIndex(decl.Cols, frozen)
		}
	}
	t.publish(hashIdx, ordIdx, t.cur.Load().lsn)
}

// AllRows exposes the currently published rows (immutable).
func (t *Table) AllRows() []types.Row { return t.Version().AllRows() }

// Journal is the durability hook installed under the store: a
// write-ahead log that mutations append to — and wait on, per the
// journal's sync policy — before publishing. It is an interface (the
// implementation lives in internal/wal) so storage stays a leaf
// package; the orthoq layer wires the two together. Each Log method
// returns the sequence number assigned to the record, which the
// mutation stamps onto the Version it publishes.
type Journal interface {
	// LogCreateTable appends a table-creation record.
	LogCreateTable(schema *catalog.Table) (uint64, error)
	// LogInsert appends a row-batch record. The call returns only once
	// the record is acknowledged per the journal's sync policy.
	LogInsert(table string, rows []types.Row) (uint64, error)
}

// Store is a database instance: catalog plus stored tables. Table
// lookup is lock-free (the table map is copy-on-write); CreateTable
// serializes writers on an internal mutex.
type Store struct {
	Catalog *catalog.Catalog

	mu     sync.Mutex // serializes CreateTable
	tables atomic.Pointer[map[string]*Table]

	jnl atomic.Pointer[Journal]
}

// SetJournal attaches (or detaches, with nil) the store's journal.
// Attach after bootstrap/recovery so initial population is not logged;
// mutations from that point on are write-ahead logged.
func (s *Store) SetJournal(j Journal) {
	if j == nil {
		s.jnl.Store(nil)
		return
	}
	s.jnl.Store(&j)
}

// journal returns the attached journal (nil when none).
func (s *Store) journal() Journal {
	p := s.jnl.Load()
	if p == nil {
		return nil
	}
	return *p
}

// New creates an empty store over the catalog.
func New(cat *catalog.Catalog) *Store {
	s := &Store{Catalog: cat}
	m := make(map[string]*Table)
	s.tables.Store(&m)
	return s
}

// CreateTable registers schema in the catalog and allocates storage,
// publishing the extended table map atomically so concurrent readers
// never observe a torn map. With a journal attached the creation is
// write-ahead logged (after catalog validation, before publication).
func (s *Store) CreateTable(schema *catalog.Table) (*Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.Catalog.Add(schema); err != nil {
		return nil, err
	}
	var lsn uint64
	if j := s.journal(); j != nil {
		var err error
		if lsn, err = j.LogCreateTable(schema); err != nil {
			// Roll back the registration: no Table was published and no
			// record was logged, so a catalog entry would be a phantom —
			// lookups miss it, yet a retry fails with "already exists".
			s.Catalog.Remove(schema.Name)
			return nil, err
		}
	}
	t := newTable(s, schema, lsn)
	old := *s.tables.Load()
	next := make(map[string]*Table, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[lower(schema.Name)] = t
	s.tables.Store(&next)
	return t, nil
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 32
		}
	}
	return string(b)
}

// Table returns the stored table by name.
func (s *Store) Table(name string) (*Table, bool) {
	t, ok := (*s.tables.Load())[lower(name)]
	return t, ok
}

// Snapshot is a consistent point-in-time view of the whole store:
// the Version of every table as of the moment Snapshot() was called.
// Reads through a Snapshot are repeatable — concurrent inserts,
// index rebuilds, and even CreateTable are invisible to it. Snapshots
// are cheap (one pointer load per table, no copying) and need no
// release; dropping the reference frees them.
type Snapshot struct {
	versions map[string]*Version
}

// Snapshot pins the current version of every stored table.
func (s *Store) Snapshot() *Snapshot {
	tables := *s.tables.Load()
	sn := &Snapshot{versions: make(map[string]*Version, len(tables))}
	for name, t := range tables {
		sn.versions[name] = t.Version()
	}
	return sn
}

// Table returns the pinned version of the named table. Tables created
// after the snapshot was taken do not exist in it.
func (sn *Snapshot) Table(name string) (*Version, bool) {
	v, ok := sn.versions[lower(name)]
	return v, ok
}

// CheckpointSnapshot pins a checkpoint-consistent view: it acquires
// the store lock plus every table's writer lock, runs pin (the
// checkpointer reads the journal's next-LSN watermark and rotates the
// active segment there), and collects each table's current Version
// before releasing. Because mutations append their journal record and
// publish under the same table lock, no record with an LSN below the
// watermark can be missing from the returned snapshot — the watermark
// is an exact consistency point, so a successful checkpoint may delete
// every rotated-out segment. Writers stall only for the duration of
// the pin (the snapshot serialization itself happens after release).
func (s *Store) CheckpointSnapshot(pin func()) *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	tables := *s.tables.Load()
	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic acquisition order
	for _, name := range names {
		tables[name].mu.Lock()
	}
	if pin != nil {
		pin()
	}
	sn := &Snapshot{versions: make(map[string]*Version, len(tables))}
	for _, name := range names {
		sn.versions[name] = tables[name].Version()
		tables[name].mu.Unlock()
	}
	return sn
}

// ApplyCreateTable re-applies a logged table creation during recovery.
// A table that already exists (it was captured by the checkpoint the
// replay starts from) is left untouched.
func (s *Store) ApplyCreateTable(schema *catalog.Table, lsn uint64) error {
	if _, ok := s.Table(schema.Name); ok {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.Catalog.Add(schema); err != nil {
		return err
	}
	t := newTable(s, schema, lsn)
	old := *s.tables.Load()
	next := make(map[string]*Table, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[lower(schema.Name)] = t
	s.tables.Store(&next)
	return nil
}

// ApplyInsert re-applies a logged row batch during recovery. Records
// at or below the table's checkpointed LSN are skipped (their rows are
// already in the snapshot); everything newer is appended and the
// version restamped. The rows passed checkRow when first logged and
// pass it again here, so a log record that decodes but does not fit
// the schema fails recovery instead of the first query that reads it.
func (s *Store) ApplyInsert(table string, rows []types.Row, lsn uint64) error {
	t, ok := s.Table(table)
	if !ok {
		return fmt.Errorf("storage: replay insert into unknown table %q", table)
	}
	if err := t.checkRows(rows); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	prev := t.cur.Load()
	if lsn <= prev.lsn {
		return nil
	}
	t.Rows = append(t.Rows, rows...)
	t.publish(prev.hashIdx, prev.ordIdx, lsn)
	return nil
}

// NewFromCatalog creates a store with (empty) table storage allocated
// for every table already registered in the catalog.
func NewFromCatalog(cat *catalog.Catalog) *Store {
	s := &Store{Catalog: cat}
	m := make(map[string]*Table)
	for _, t := range cat.Tables() {
		m[lower(t.Name)] = newTable(s, t, 0)
	}
	s.tables.Store(&m)
	return s
}

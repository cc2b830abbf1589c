package exec

// Shared sub-expression materialization (Roy et al., "Efficient and
// Extensible Algorithms for Multi Query Optimization"): uncorrelated
// aggregation subtrees — the expensive materializations in this
// engine's plans — are fingerprinted at compile time and their output
// rows cached in the DB's semantic result cache, so concurrent and
// successive queries sharing a subtree compute it once per table
// version.
//
// Correctness comes from the key, never from invalidation: the
// canonical fingerprint renders the subtree's structure with column
// IDs renumbered to dense local ordinals (so identical shapes from
// different queries — with different global ColID assignments — meet
// at one key), parameter slots replaced by their bound values, and the
// pinned version ID of every referenced table appended. Any write
// mints new version IDs, making old keys unreachable.
//
// Only serial strands cache: worker clones never carry SubCache, and
// plans with a parallel exchange skip caching outright, so every
// cached materialization was produced by deterministic serial
// execution and replays in exactly that order.

import (
	"fmt"
	"sort"
	"strings"

	"orthoq/internal/algebra"
	"orthoq/internal/sql/types"
)

// maybeCacheSub wraps a compiled aggregation subtree in a caching
// iterator when the subtree is eligible: sub-expression caching is on,
// this is a serial strand of a serial plan, no fault injection is
// active (injected faults must fire identically run to run), the
// subtree is uncorrelated, and every node renders canonically.
func maybeCacheSub(ctx *Context, rel algebra.Rel, inner iterator) iterator {
	if ctx.SubCache == nil || ctx.isWorker || ctx.pplan != nil ||
		ctx.Faults != nil || len(ctx.segStack) > 0 {
		return inner
	}
	key, tables, ok := subPlanKey(ctx, rel)
	if !ok {
		return inner
	}
	return &cachedSubIter{ctx: ctx, key: key, tables: tables, inner: inner}
}

// subPlanKey builds the canonical cache key for an uncorrelated
// subtree, returning the lowercased tables it reads (the reverse-index
// handles for eager invalidation). ok=false means the subtree is not
// safely cacheable.
func subPlanKey(ctx *Context, rel algebra.Rel) (string, []string, bool) {
	if !algebra.OuterRefs(rel).Empty() {
		return "", nil, false
	}
	r := &subRenderer{ctx: ctx, ords: make(map[algebra.ColID]int)}
	var b strings.Builder
	b.WriteString("s1\x00")
	if !r.rel(&b, rel) {
		return "", nil, false
	}
	if len(r.tables) == 0 {
		// A constant subtree is cheap to recompute and has no version
		// to key on; never cache it.
		return "", nil, false
	}
	names := make([]string, 0, len(r.tables))
	for name := range r.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v, ok := ctx.table(name)
		if !ok {
			return "", nil, false
		}
		fmt.Fprintf(&b, "\x00tv:%s=%d", name, v.ID())
	}
	return b.String(), names, true
}

// subRenderer walks a subtree producing its canonical rendering.
// Unknown or unsafe nodes abort (return false): a fingerprint must
// cover the node's full semantics or not exist at all.
type subRenderer struct {
	ctx    *Context
	ords   map[algebra.ColID]int
	tables map[string]struct{}
}

// col renders a column as its dense local ordinal, assigned in
// first-visit order so structurally identical subtrees from different
// queries (different global ColID spaces) render identically.
func (r *subRenderer) col(b *strings.Builder, c algebra.ColID) {
	o, ok := r.ords[c]
	if !ok {
		o = len(r.ords)
		r.ords[c] = o
	}
	fmt.Fprintf(b, "c%d", o)
}

func (r *subRenderer) cols(b *strings.Builder, cs []algebra.ColID) {
	for i, c := range cs {
		if i > 0 {
			b.WriteByte(',')
		}
		r.col(b, c)
	}
}

func (r *subRenderer) datum(b *strings.Builder, d types.Datum) {
	if d.IsNull() {
		b.WriteString("null")
		return
	}
	// Kind-tagged so 1 (int) and "1" (string) never alias.
	fmt.Fprintf(b, "%s:%s", d.Kind(), d.String())
}

func (r *subRenderer) rel(b *strings.Builder, rel algebra.Rel) bool {
	switch t := rel.(type) {
	case *algebra.Get:
		name := strings.ToLower(t.Table)
		if r.tables == nil {
			r.tables = make(map[string]struct{})
		}
		r.tables[name] = struct{}{}
		fmt.Fprintf(b, "get(%s ", name)
		r.cols(b, t.Cols)
		b.WriteByte(')')
		return true
	case *algebra.Select:
		b.WriteString("sel(")
		if !r.rel(b, t.Input) {
			return false
		}
		b.WriteByte(' ')
		if !r.scalar(b, t.Filter) {
			return false
		}
		b.WriteByte(')')
		return true
	case *algebra.Project:
		b.WriteString("proj(")
		if !r.rel(b, t.Input) {
			return false
		}
		b.WriteByte(' ')
		r.cols(b, t.Passthrough.Ordered())
		for _, it := range t.Items {
			b.WriteByte(' ')
			r.col(b, it.Col)
			b.WriteByte('=')
			if !r.scalar(b, it.Expr) {
				return false
			}
		}
		b.WriteByte(')')
		return true
	case *algebra.Join:
		fmt.Fprintf(b, "join[%s](", t.Kind)
		if !r.rel(b, t.Left) {
			return false
		}
		b.WriteByte(' ')
		if !r.rel(b, t.Right) {
			return false
		}
		if t.On != nil {
			b.WriteByte(' ')
			if !r.scalar(b, t.On) {
				return false
			}
		}
		b.WriteByte(')')
		return true
	case *algebra.Apply:
		fmt.Fprintf(b, "apply[%s](", t.Kind)
		if !r.rel(b, t.Left) {
			return false
		}
		b.WriteByte(' ')
		if !r.rel(b, t.Right) {
			return false
		}
		if t.On != nil {
			b.WriteByte(' ')
			if !r.scalar(b, t.On) {
				return false
			}
		}
		b.WriteByte(')')
		return true
	case *algebra.GroupBy:
		fmt.Fprintf(b, "gb[%s](", t.Kind)
		if !r.rel(b, t.Input) {
			return false
		}
		b.WriteByte(' ')
		r.cols(b, t.GroupCols.Ordered())
		for _, a := range t.Aggs {
			b.WriteByte(' ')
			r.col(b, a.Col)
			fmt.Fprintf(b, "=%s", a.Func)
			if a.Distinct {
				b.WriteString("/d")
			}
			if a.Global {
				b.WriteString("/g")
			}
			if a.Arg != nil {
				b.WriteByte('(')
				if !r.scalar(b, a.Arg) {
					return false
				}
				b.WriteByte(')')
			}
		}
		b.WriteByte(')')
		return true
	case *algebra.Max1Row:
		b.WriteString("max1(")
		if !r.rel(b, t.Input) {
			return false
		}
		b.WriteByte(')')
		return true
	case *algebra.UnionAll:
		b.WriteString("union(")
		if !r.rel(b, t.Left) {
			return false
		}
		b.WriteByte(' ')
		r.cols(b, t.LeftCols)
		b.WriteByte(' ')
		if !r.rel(b, t.Right) {
			return false
		}
		b.WriteByte(' ')
		r.cols(b, t.RightCols)
		b.WriteByte(' ')
		r.cols(b, t.OutCols)
		b.WriteByte(')')
		return true
	case *algebra.Difference:
		b.WriteString("diff(")
		if !r.rel(b, t.Left) {
			return false
		}
		b.WriteByte(' ')
		r.cols(b, t.LeftCols)
		b.WriteByte(' ')
		if !r.rel(b, t.Right) {
			return false
		}
		b.WriteByte(' ')
		r.cols(b, t.RightCols)
		b.WriteByte(' ')
		r.cols(b, t.OutCols)
		b.WriteByte(')')
		return true
	case *algebra.Values:
		b.WriteString("values(")
		r.cols(b, t.Cols)
		for _, row := range t.Rows {
			b.WriteByte(' ')
			for i, s := range row {
				if i > 0 {
					b.WriteByte(',')
				}
				if !r.scalar(b, s) {
					return false
				}
			}
		}
		b.WriteByte(')')
		return true
	case *algebra.Sort:
		b.WriteString("sort(")
		if !r.rel(b, t.Input) {
			return false
		}
		for _, o := range t.By {
			b.WriteByte(' ')
			r.col(b, o.Col)
			if o.Desc {
				b.WriteString("/d")
			}
		}
		b.WriteByte(')')
		return true
	case *algebra.Top:
		fmt.Fprintf(b, "top[%d](", t.N)
		if !r.rel(b, t.Input) {
			return false
		}
		b.WriteByte(')')
		return true
	case *algebra.RowNumber:
		// Replaying a RowNumber materialization is safe (the numbering
		// is deterministic under serial execution), but the manufactured
		// column's values are execution artifacts; keep them out of the
		// cache to avoid pinning arbitrary numbering across plans.
		return false
	}
	// SegmentApply/SegmentRef (positionally bound to run-time segment
	// state) and anything unknown: not cacheable.
	return false
}

func (r *subRenderer) scalar(b *strings.Builder, s algebra.Scalar) bool {
	switch t := s.(type) {
	case nil:
		b.WriteString("~")
		return true
	case *algebra.ColRef:
		r.col(b, t.Col)
		return true
	case *algebra.Const:
		r.datum(b, t.Val)
		return true
	case *algebra.Param:
		// The bound value, not the slot: a cached materialization is
		// specific to the parameter values it was computed under.
		if t.Idx < 0 || t.Idx >= len(r.ctx.Params) {
			return false
		}
		r.datum(b, r.ctx.Params[t.Idx])
		return true
	case *algebra.Cmp:
		fmt.Fprintf(b, "cmp[%s](", t.Op)
		if !r.scalar(b, t.L) || !r.scalar(b, t.R) {
			return false
		}
		b.WriteByte(')')
		return true
	case *algebra.And:
		b.WriteString("and(")
		for _, a := range t.Args {
			if !r.scalar(b, a) {
				return false
			}
			b.WriteByte(';')
		}
		b.WriteByte(')')
		return true
	case *algebra.Or:
		b.WriteString("or(")
		for _, a := range t.Args {
			if !r.scalar(b, a) {
				return false
			}
			b.WriteByte(';')
		}
		b.WriteByte(')')
		return true
	case *algebra.Not:
		b.WriteString("not(")
		if !r.scalar(b, t.Arg) {
			return false
		}
		b.WriteByte(')')
		return true
	case *algebra.Arith:
		fmt.Fprintf(b, "arith[%d](", t.Op)
		if !r.scalar(b, t.L) || !r.scalar(b, t.R) {
			return false
		}
		b.WriteByte(')')
		return true
	case *algebra.IsNull:
		fmt.Fprintf(b, "isnull[%t](", t.Negate)
		if !r.scalar(b, t.Arg) {
			return false
		}
		b.WriteByte(')')
		return true
	case *algebra.Like:
		fmt.Fprintf(b, "like[%t](", t.Negate)
		if !r.scalar(b, t.L) || !r.scalar(b, t.R) {
			return false
		}
		b.WriteByte(')')
		return true
	case *algebra.InList:
		fmt.Fprintf(b, "in[%t](", t.Negate)
		if !r.scalar(b, t.Arg) {
			return false
		}
		for _, a := range t.List {
			b.WriteByte(';')
			if !r.scalar(b, a) {
				return false
			}
		}
		b.WriteByte(')')
		return true
	case *algebra.Case:
		b.WriteString("case(")
		for _, w := range t.Whens {
			if !r.scalar(b, w.Cond) || !r.scalar(b, w.Then) {
				return false
			}
			b.WriteByte(';')
		}
		if !r.scalar(b, t.Else) {
			return false
		}
		b.WriteByte(')')
		return true
	}
	// Subquery/Exists/Quantified should not survive into executable
	// plans in cacheable positions; refuse rather than guess.
	return false
}

// subEntry is one cached sub-expression materialization. Row headers
// are shared with every replaying consumer; the datum storage is
// immutable per the batch ownership contract.
type subEntry struct {
	rows []types.Row
}

// cachedSubIter serves a subtree from the sub-expression cache when a
// materialization for its key exists, and otherwise tees the subtree's
// output into a candidate entry while passing rows through unchanged.
// The candidate is admitted only after a complete drain (an abandoned
// or failed scan caches nothing) and is dropped mid-drain the moment
// it exceeds the cache's single-entry cap.
type cachedSubIter struct {
	ctx    *Context
	key    string
	tables []string
	inner  iterator

	replay   bool
	entry    *subEntry
	pos      int
	opened   bool
	teeing   bool
	buf      []types.Row
	bufBytes int64
}

func (s *cachedSubIter) Open() error {
	s.pos = 0
	s.buf, s.bufBytes = nil, 0
	if v, ok := s.ctx.SubCache.Lookup(s.key); ok {
		s.ctx.SubCache.CountSubHit()
		s.entry, s.replay = v.(*subEntry), true
		s.teeing = false
		return nil
	}
	s.ctx.SubCache.CountSubMiss()
	s.entry, s.replay = nil, false
	s.teeing = true
	if err := s.inner.Open(); err != nil {
		s.teeing = false
		return err
	}
	s.opened = true
	return nil
}

func (s *cachedSubIter) abandon() {
	s.teeing = false
	s.buf, s.bufBytes = nil, 0
}

// observe tees one produced row into the candidate entry. Retaining
// the row header is safe: produced datum storage is never rewritten
// (the batch ownership contract); only the Rows/Sel slices are reused.
func (s *cachedSubIter) observe(row types.Row) {
	s.bufBytes += types.RowBytes(row)
	if s.bufBytes > s.ctx.SubCache.MaxEntryBytes() {
		s.abandon()
		return
	}
	s.buf = append(s.buf, row)
}

// commit admits the fully drained candidate.
func (s *cachedSubIter) commit() {
	rows := s.buf
	bytes := s.bufBytes
	s.teeing = false
	s.buf = nil
	s.ctx.SubCache.Put(s.key, s.tables, &subEntry{rows: rows}, bytes+64)
}

// NextBatch serves replays in windows of the cached rows, and otherwise
// passes the subtree's batches through the tee unchanged.
func (s *cachedSubIter) NextBatch(b *Batch) error {
	if s.replay {
		b.serve(s.entry.rows, &s.pos)
		// Replayed rows count toward RowBudget like produced rows; the
		// operators below never run, so their productions are saved.
		return s.ctx.chargeN(b.Len())
	}
	if err := s.inner.NextBatch(b); err != nil {
		s.abandon()
		return err
	}
	n := b.Len()
	if s.teeing {
		if n == 0 {
			s.commit()
		}
		for i := 0; i < n; i++ {
			s.observe(b.Row(i))
		}
	}
	return nil
}

func (s *cachedSubIter) Close() error {
	s.abandon()
	s.entry, s.replay = nil, false
	if s.opened {
		s.opened = false
		return s.inner.Close()
	}
	return nil
}

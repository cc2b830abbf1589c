package algebra

// JoinKind enumerates the join variants used both by Join and Apply
// (the paper's ⊗ in R A⊗ E: cross, left outerjoin, left semijoin, left
// antijoin; Inner is cross+predicate).
type JoinKind uint8

// Join variants.
const (
	InnerJoin JoinKind = iota
	CrossJoin
	LeftOuterJoin
	SemiJoin
	AntiSemiJoin
)

// String names the join kind as in the paper's figures.
func (k JoinKind) String() string {
	switch k {
	case InnerJoin:
		return "inner"
	case CrossJoin:
		return "cross"
	case LeftOuterJoin:
		return "leftouter"
	case SemiJoin:
		return "semi"
	case AntiSemiJoin:
		return "antisemi"
	}
	return "?"
}

// PreservesLeftUnmatched reports whether unmatched left rows survive
// (outerjoin).
func (k JoinKind) PreservesLeftUnmatched() bool { return k == LeftOuterJoin }

// InnerOrCross reports an inner or cross join.
func (k JoinKind) InnerOrCross() bool { return k == InnerJoin || k == CrossJoin }

// ReturnsRightCols reports whether the variant emits right-side columns.
func (k JoinKind) ReturnsRightCols() bool {
	return k == InnerJoin || k == CrossJoin || k == LeftOuterJoin
}

// Rel is a logical relational operator node. Trees are immutable by
// convention: transformations build new nodes and share unchanged
// subtrees.
type Rel interface {
	relNode()
	// Inputs returns the relational children.
	Inputs() []Rel
	// WithInputs returns a copy of the node with children replaced.
	// len(children) must equal len(Inputs()).
	WithInputs(children []Rel) Rel
}

// Get scans a base table. Cols are the IDs assigned to the table's
// columns, parallel to the catalog column list.
type Get struct {
	Table string
	Cols  []ColID
	// KeyCols is the primary key of the table, as column IDs. Key
	// inference (identities (7)-(9) require keys) starts here.
	KeyCols ColSet
	// Order, when non-empty, is a physical property requirement: the
	// scan must deliver rows in this order. The optimizer sets it when
	// an ordered index makes the order free, letting downstream Sorts
	// be elided and merge-style operators stream; the executor honors
	// it via an ordered index scan (or an explicit sort fallback when
	// the index is stale). Empty means no ordering requirement.
	Order []Ordering
}

// Select filters Input by Filter (relational selection σ).
type Select struct {
	Input  Rel
	Filter Scalar
}

// ProjItem computes one new column.
type ProjItem struct {
	Col  ColID
	Expr Scalar
}

// Project computes new columns and passes others through (π). Its
// output is exactly Passthrough ∪ {items' cols}.
type Project struct {
	Input       Rel
	Passthrough ColSet
	Items       []ProjItem
}

// Join combines two inputs under a predicate. On==nil means TRUE
// (cross product for CrossJoin).
type Join struct {
	Kind  JoinKind
	Left  Rel
	Right Rel
	On    Scalar
}

// Apply is the paper's correlated-execution operator R A⊗ E: for each
// left row, evaluate Right (which may reference left columns as free
// variables) and combine per Kind, filtering with On when non-nil
// (the ⊗p forms of identity (2)).
type Apply struct {
	Kind  JoinKind
	Left  Rel
	Right Rel
	On    Scalar
}

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Aggregate functions. ConstAny passes through the (group-constant)
// argument value; it implements the paper's §3.3 grouping-column
// passthrough and the compensating projects.
const (
	AggCount AggFunc = iota // count(arg): non-NULL count
	AggCountStar
	AggSum
	AggMin
	AggMax
	AggAvg
	AggConstAny // arbitrary value of arg within group (used for FD-passthrough)
)

// String names the aggregate.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggCountStar:
		return "count(*)"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	case AggConstAny:
		return "any"
	}
	return "?"
}

// NullOnEmpty reports agg(∅)==NULL — true for all SQL aggregates except
// count/count(*), which return 0 (paper §1.1). This drives identity (9)
// aggregate adjustment and the §3.2 compensating project.
func (f AggFunc) NullOnEmpty() bool {
	return f != AggCount && f != AggCountStar
}

// Splittable reports whether the aggregate has local/global components
// (paper §3.3). Avg is composite: it is decomposed into sum/count
// before splitting.
func (f AggFunc) Splittable() bool {
	switch f {
	case AggCount, AggCountStar, AggSum, AggMin, AggMax, AggConstAny:
		return true
	}
	return false
}

// GroupByKind distinguishes the paper's three aggregation flavors.
type GroupByKind uint8

// GroupBy flavors: vector (G_{A,F}), scalar (G¹_F, always exactly one
// output row), and local (LG, partial aggregation whose grouping
// columns may be freely extended — §3.3).
const (
	VectorGroupBy GroupByKind = iota
	ScalarGroupBy
	LocalGroupBy
)

// String names the flavor as in the paper's figures.
func (k GroupByKind) String() string {
	switch k {
	case VectorGroupBy:
		return "Gb"
	case ScalarGroupBy:
		return "SGb"
	case LocalGroupBy:
		return "LGb"
	}
	return "?"
}

// AggItem computes one aggregate output column.
type AggItem struct {
	Col      ColID
	Func     AggFunc
	Arg      Scalar // nil for count(*)
	Distinct bool
	// Global marks the combining phase of a split aggregate: its Arg is
	// a column holding local partials (count-global sums the partial
	// counts).
	Global bool
}

// GroupBy groups Input by GroupCols and computes Aggs (G_{A,F}; §1.1).
type GroupBy struct {
	Kind      GroupByKind
	Input     Rel
	GroupCols ColSet
	Aggs      []AggItem
}

// SegmentApply partitions Input into segments by SegmentCols and
// evaluates Inner once per segment (R SA_A E; §3.4). Inside Inner the
// segment is visible through SegmentRef leaves; each SegmentRef's Cols
// are parallel to InputCols and are bound positionally to the segment's
// rows. The operator's output is Inner's output (the segment values
// already flow through the refs).
type SegmentApply struct {
	Input Rel
	// InputCols is the ordered binding list: the Input output columns
	// that segment rows expose to Inner's SegmentRefs.
	InputCols   []ColID
	SegmentCols ColSet
	Inner       Rel
}

// SegmentRef is a leaf inside a SegmentApply's Inner expression that
// produces the current segment's rows, renamed positionally onto Cols
// (parallel to the enclosing SegmentApply's InputCols).
type SegmentRef struct {
	Cols []ColID
}

// Max1Row passes through its input but raises a run-time error if it
// produces more than one row (paper §2.4, class-3 subqueries).
type Max1Row struct {
	Input Rel
}

// UnionAll is bag union. Left/Right columns are mapped positionally
// onto fresh output columns.
type UnionAll struct {
	Left, Right Rel
	LeftCols    []ColID
	RightCols   []ColID
	OutCols     []ColID
}

// Difference is bag difference (EXCEPT ALL), needed for identity (6).
type Difference struct {
	Left, Right Rel
	LeftCols    []ColID
	RightCols   []ColID
	OutCols     []ColID
}

// ValuesRow is one constant row.
type ValuesRow []Scalar

// Values produces a constant relation. With no rows it is the empty
// relation; with one empty row it is the one-row/zero-column relation
// used as a join identity.
type Values struct {
	Cols []ColID
	Rows []ValuesRow
}

// Ordering is one sort key.
type Ordering struct {
	Col  ColID
	Desc bool
}

// Sort orders its input (ORDER BY; presentation only).
type Sort struct {
	Input Rel
	By    []Ordering
}

// Top limits output to the first N rows (LIMIT).
type Top struct {
	Input Rel
	N     int64
}

// Exchange passes its input through, run on workers over morsels of a
// base-table scan in it: the enforcer of a partitioned input, as Sort is
// of an ordered one. It delivers no order; the optimizer places it.
type Exchange struct {
	Input Rel
}

// RowNumber extends each input row with a fresh, unique integer column.
// It manufactures a key when key inference fails (paper §3.1: "one can
// always be manufactured during execution").
type RowNumber struct {
	Input Rel
	Col   ColID
}

func (*Get) relNode()          {}
func (*Select) relNode()       {}
func (*Project) relNode()      {}
func (*Join) relNode()         {}
func (*Apply) relNode()        {}
func (*GroupBy) relNode()      {}
func (*SegmentApply) relNode() {}
func (*SegmentRef) relNode()   {}
func (*Max1Row) relNode()      {}
func (*UnionAll) relNode()     {}
func (*Difference) relNode()   {}
func (*Values) relNode()       {}
func (*Sort) relNode()         {}
func (*Top) relNode()          {}
func (*RowNumber) relNode()    {}
func (*Exchange) relNode()     {}

// Inputs implementations.

func (g *Get) Inputs() []Rel     { return nil }
func (s *Select) Inputs() []Rel  { return []Rel{s.Input} }
func (p *Project) Inputs() []Rel { return []Rel{p.Input} }
func (j *Join) Inputs() []Rel    { return []Rel{j.Left, j.Right} }
func (a *Apply) Inputs() []Rel   { return []Rel{a.Left, a.Right} }
func (g *GroupBy) Inputs() []Rel { return []Rel{g.Input} }
func (s *SegmentApply) Inputs() []Rel {
	return []Rel{s.Input, s.Inner}
}
func (s *SegmentRef) Inputs() []Rel { return nil }
func (m *Max1Row) Inputs() []Rel    { return []Rel{m.Input} }
func (u *UnionAll) Inputs() []Rel   { return []Rel{u.Left, u.Right} }
func (d *Difference) Inputs() []Rel { return []Rel{d.Left, d.Right} }
func (v *Values) Inputs() []Rel     { return nil }
func (s *Sort) Inputs() []Rel       { return []Rel{s.Input} }
func (t *Top) Inputs() []Rel        { return []Rel{t.Input} }
func (r *RowNumber) Inputs() []Rel  { return []Rel{r.Input} }
func (x *Exchange) Inputs() []Rel   { return []Rel{x.Input} }

// WithInputs implementations (copy-on-write).

func (g *Get) WithInputs(c []Rel) Rel { return g }
func (s *Select) WithInputs(c []Rel) Rel {
	n := *s
	n.Input = c[0]
	return &n
}
func (p *Project) WithInputs(c []Rel) Rel {
	n := *p
	n.Input = c[0]
	return &n
}
func (j *Join) WithInputs(c []Rel) Rel {
	n := *j
	n.Left, n.Right = c[0], c[1]
	return &n
}
func (a *Apply) WithInputs(c []Rel) Rel {
	n := *a
	n.Left, n.Right = c[0], c[1]
	return &n
}
func (g *GroupBy) WithInputs(c []Rel) Rel {
	n := *g
	n.Input = c[0]
	return &n
}
func (s *SegmentApply) WithInputs(c []Rel) Rel {
	n := *s
	n.Input, n.Inner = c[0], c[1]
	return &n
}
func (s *SegmentRef) WithInputs(c []Rel) Rel { return s }
func (m *Max1Row) WithInputs(c []Rel) Rel {
	n := *m
	n.Input = c[0]
	return &n
}
func (u *UnionAll) WithInputs(c []Rel) Rel {
	n := *u
	n.Left, n.Right = c[0], c[1]
	return &n
}
func (d *Difference) WithInputs(c []Rel) Rel {
	n := *d
	n.Left, n.Right = c[0], c[1]
	return &n
}
func (v *Values) WithInputs(c []Rel) Rel { return v }
func (s *Sort) WithInputs(c []Rel) Rel {
	n := *s
	n.Input = c[0]
	return &n
}
func (t *Top) WithInputs(c []Rel) Rel {
	n := *t
	n.Input = c[0]
	return &n
}
func (r *RowNumber) WithInputs(c []Rel) Rel {
	n := *r
	n.Input = c[0]
	return &n
}
func (x *Exchange) WithInputs(c []Rel) Rel { return &Exchange{Input: c[0]} }

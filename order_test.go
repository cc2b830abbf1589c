package orthoq

// Order-equivalence harness: every TPC-H benchmark query and a corpus
// of order-sensitive shapes run under the variants that change which
// order-exploiting operators execute — the order rules on and off,
// serial and parallel, and every equi-join and grouped aggregation fed
// sorted inputs (sortedInputs), so that each runs as the merge join or
// streaming aggregation the executor picks for ordered input — and
// every variant must return the bag of rows internal/reference gives
// the query, in the reference's ORDER BY key sequence where the query
// orders its result. With the order rules off the plan keeps its
// explicit Sorts, so an ordered scan that delivered the wrong order
// would disagree with the oracle here.

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"orthoq/internal/algebra"
	"orthoq/internal/exec"
	"orthoq/internal/opt"
)

// orderedFingerprint renders rows in sequence with numeric rounding
// (parallel and reordered aggregation legally differ in float
// round-off).
func orderedFingerprint(rows *Rows) []string {
	keys := make([]string, len(rows.Data))
	for i, row := range rows.Data {
		parts := make([]string, len(row))
		for j, v := range row {
			if !v.IsNull() && v.Kind().Numeric() {
				f, _ := v.AsFloat()
				parts[j] = fmt.Sprintf("%.4f", f)
			} else {
				parts[j] = v.String()
			}
		}
		keys[i] = strings.Join(parts, "|")
	}
	return keys
}

// orderVariants are the configurations the order harness holds to the
// oracle.
var orderVariants = []engineVariant{
	{"default", func(*Config) {}, false},
	{"order-rules-off", func(c *Config) { c.DisableRules = opt.FamilyOrder }, false},
	{"par4", func(c *Config) { c.Parallelism = 4 }, false},
	{"sorted-inputs", func(*Config) {}, true},
	{"par4+sorted-inputs", func(c *Config) { c.Parallelism = 4 }, true},
}

// sortedInputs rewrites rel so that both inputs of every equi-join of a
// kind merge join supports (inner, left outer, semi, anti) arrive
// sorted on the join keys, and the input of every grouped GroupBy
// sorted on its group columns. The executor chooses algorithms from the
// plan alone, so those nodes run as merge joins and streaming
// aggregations: this is how a test reaches those operators in the form
// production runs them, on any query.
func sortedInputs(rel algebra.Rel) algebra.Rel {
	ins := rel.Inputs()
	kids := make([]algebra.Rel, len(ins))
	for i, in := range ins {
		kids[i] = sortedInputs(in)
	}
	switch t := rel.(type) {
	case *algebra.Join:
		switch t.Kind {
		case algebra.InnerJoin, algebra.LeftOuterJoin, algebra.SemiJoin, algebra.AntiSemiJoin:
			if lk, rk, _ := exec.SplitJoinKeys(t.On, algebra.OutputCols(t.Left), algebra.OutputCols(t.Right)); len(lk) > 0 {
				kids[0], kids[1] = sortedOn(kids[0], lk), sortedOn(kids[1], rk)
			}
		}
	case *algebra.GroupBy:
		if !t.GroupCols.Empty() {
			kids[0] = sortedOn(kids[0], t.GroupCols.Ordered())
		}
	}
	return rel.WithInputs(kids)
}

// sortedOn sorts rel ascending on cols.
func sortedOn(rel algebra.Rel, cols []algebra.ColID) algebra.Rel {
	by := make([]algebra.Ordering, len(cols))
	for i, c := range cols {
		by[i] = algebra.Ordering{Col: c}
	}
	return &algebra.Sort{Input: rel, By: by}
}

// noteOrderOps records in ran the merge joins ("merge <kind>") and
// streaming aggregations ("stream") of a traced run: nodes the
// compiler's own selectors (exec.JoinAlg, exec.AggAlg) run that way and
// whose span shows them opened.
func noteOrderOps(rel algebra.Rel, sp *Span, ran map[string]bool) {
	if sp.Opens > 0 {
		switch t := rel.(type) {
		case *algebra.Join:
			lk, rk, _ := exec.SplitJoinKeys(t.On, algebra.OutputCols(t.Left), algebra.OutputCols(t.Right))
			if exec.JoinAlg(lk, rk, algebra.DeliveredOrder(t.Left), algebra.DeliveredOrder(t.Right)) == exec.AlgMerge {
				ran["merge "+t.Kind.String()] = true
			}
		case *algebra.GroupBy:
			if !t.GroupCols.Empty() && exec.AggAlg(t, algebra.DeliveredOrder(t.Input)) == exec.AlgStream {
				ran["stream"] = true
			}
		}
	}
	for i, in := range rel.Inputs() {
		noteOrderOps(in, sp.Children[i], ran)
	}
}

// orderCorpus returns the harness queries beyond the TPC-H set:
// handcrafted order-sensitive shapes plus a slice of the random
// generator's output (which includes the ORDER BY / LIMIT / grouped-
// scan cases).
func orderCorpus() []string {
	qs := []string{
		`select o_orderkey from orders order by o_orderkey`,
		`select o_orderkey, o_totalprice from orders order by o_orderkey desc`,
		`select l_orderkey, l_linenumber from lineitem order by l_orderkey, l_linenumber`,
		`select o_orderkey from orders where o_totalprice > 1000 order by o_orderkey limit 25`,
		`select l_orderkey, sum(l_quantity) as q from lineitem group by l_orderkey order by l_orderkey`,
		`select l_orderkey, count(*) as n from lineitem where l_partkey > 40 group by l_orderkey`,
		`select o_orderkey, l_linenumber from orders join lineitem on l_orderkey = o_orderkey
		 order by o_orderkey, l_linenumber`,
		`select o_orderkey, c_name from customer join orders on o_custkey = c_custkey
		 where o_totalprice > 5000 order by o_orderkey`,
		`select o_orderkey from orders
		 where exists (select l_orderkey from lineitem where l_orderkey = o_orderkey and l_quantity > 30)
		 order by o_orderkey desc limit 20`,
		`select o_orderkey from orders
		 where not exists (select l_orderkey from lineitem where l_orderkey = o_orderkey)
		 order by o_orderkey`,
		`select c_custkey, c_name from customer left join orders on o_custkey = c_custkey
		 where o_orderkey is null order by c_custkey`,
		// NULL keys into an anti join: customers without orders must
		// survive NOT EXISTS, whatever algorithm runs it.
		`select c_custkey, o_orderkey from customer left join orders on o_custkey = c_custkey
		 where not exists (select l_orderkey from lineitem where l_orderkey = o_orderkey and l_quantity > 45)`,
		// Many left rows past the last right key: a merge anti or left
		// outer join must keep emitting them after its right input ends.
		`select c_custkey from customer
		 where not exists (select o_orderkey from orders where o_custkey = c_custkey and o_custkey < 40)`,
		`select c_custkey, o_orderkey from customer
		 left join (select o_orderkey, o_custkey from orders where o_custkey < 40) as early on o_custkey = c_custkey`,
	}
	r := rand.New(rand.NewSource(1616)) // the paper's DOI suffix digits
	for i := 0; i < 14; i++ {
		qs = append(qs, randQuery(r))
	}
	return qs
}

// TestOrderEquivalence is the order-equivalence property suite: each
// query, under each order variant, returns the oracle's bag of rows and,
// when it orders its result, the oracle's ORDER BY key sequence. The
// TPC-H queries run on sharedDB; the order corpus runs on the reference
// fuzz leg's quarter-size data, where the oracle's nested iteration over
// its orders-with(out)-lineitems tests takes a second, not fifteen. The
// sorted-inputs runs must between them have executed a merge join of
// every kind and a streaming aggregation.
func TestOrderEquivalence(t *testing.T) {
	o := newOracle(orderVariants)
	db := sharedDB(t)
	for _, name := range TPCHQueryNames() {
		sql, _ := TPCHQuery(name)
		o.check(t, db, name, sql, DefaultConfig())
	}
	small, err := OpenTPCH(referenceFuzzSF, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i, sql := range orderCorpus() {
		o.check(t, small, fmt.Sprintf("corpus %d", i), sql, DefaultConfig())
	}
	o.requireSortedRan(t)
}

// TestSortElidedOnOrderedIndex pins sort elision end to end: an ORDER
// BY on an ordered-index key loses its Sort node (EliminateSort fires,
// the plan carries the order on the scan, EXPLAIN says so), while with
// the order rules off the plan keeps the Sort — and both orders agree.
func TestSortElidedOnOrderedIndex(t *testing.T) {
	db := sharedDB(t)
	sql := `select o_orderkey, o_totalprice from orders order by o_orderkey`
	cfg := DefaultConfig()

	r, err := db.QueryCfg(sql, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(r.Plan, "Sort") {
		t.Errorf("Sort not eliminated:\n%s", r.Plan)
	}
	if !strings.Contains(r.Plan, "order=") {
		t.Errorf("plan carries no scan order:\n%s", r.Plan)
	}
	found := false
	for _, ru := range r.Rules {
		if ru == "EliminateSort" {
			found = true
		}
	}
	if !found {
		t.Errorf("EliminateSort missing from rules %v", r.Rules)
	}

	off := cfg
	off.DisableRules = opt.FamilyOrder
	r2, err := db.QueryCfg(sql, off)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r2.Plan, "Sort") {
		t.Errorf("plan without the order rules lost its Sort:\n%s", r2.Plan)
	}
	if fmt.Sprint(orderedFingerprint(r)) != fmt.Sprint(orderedFingerprint(r2)) {
		t.Error("elided-sort order disagrees with explicit sort")
	}

	out, err := db.Explain(sql, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "sort elided") {
		t.Errorf("EXPLAIN missing sort-elided annotation:\n%s", out)
	}
}

// TestMergeJoinAndStreamAggAnnotations: where the order rules give a
// join or an aggregation input that arrives in key order, EXPLAIN shows
// the merge join or streaming aggregation the executor will pick, and
// with the order rules off — inputs unordered — it shows neither.
func TestMergeJoinAndStreamAggAnnotations(t *testing.T) {
	db := sharedDB(t)
	noOrder := DefaultConfig()
	noOrder.DisableRules = opt.FamilyOrder
	for _, c := range []struct{ sql, pick string }{
		{`select o_orderkey, l_linenumber from orders join lineitem on l_orderkey = o_orderkey`, "join=merge"},
		{`select l_orderkey, sum(l_quantity) as q from lineitem group by l_orderkey`, "agg=stream"},
	} {
		out, err := db.Explain(c.sql, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, c.pick) {
			t.Errorf("%s missing from EXPLAIN:\n%s", c.pick, out)
		}
		if out, err = db.Explain(c.sql, noOrder); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(out, c.pick) {
			t.Errorf("%s in EXPLAIN without the order rules:\n%s", c.pick, out)
		}
	}
}

// TestLimitReadsOnlyItsRows pins the row cap end to end: with the Sort
// elided, ORDER BY … DESC LIMIT 3 walks three index entries — every
// span under the Top reports exactly 3 rows — and therefore runs inside
// a RowBudget a hair above 3, where reading even one batch of the
// 3000-row table would not.
func TestLimitReadsOnlyItsRows(t *testing.T) {
	db := sharedDB(t)
	sql := `select o_orderkey, o_totalprice from orders order by o_orderkey desc limit 3`
	cfg := DefaultConfig()
	cfg.Trace = true
	r, err := db.QueryCfg(sql, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(r.Plan, "Sort") {
		t.Fatalf("Sort not eliminated:\n%s", r.Plan)
	}
	var top *Span
	r.Spans().Walk(func(s *Span) {
		if s.Op == "Top" {
			top = s
		}
	})
	if top == nil || len(top.Children) != 1 {
		t.Fatalf("no Top span over one input:\n%s", r.Plan)
	}
	top.Walk(func(s *Span) {
		if s.Rows != 3 {
			t.Errorf("%s under LIMIT 3 produced %d rows, want 3", s.Op, s.Rows)
		}
	})
	cfg.RowBudget = 4
	r, err = db.QueryCfg(sql, cfg)
	if err != nil || len(r.Data) != 3 {
		t.Fatalf("under RowBudget 4: %d rows, err = %v", len(r.Data), err)
	}
	// The budget is real: without the LIMIT the same scan exceeds it.
	if _, err := db.QueryCfg(`select o_orderkey, o_totalprice from orders order by o_orderkey desc`, cfg); !errors.Is(err, ErrRowBudget) {
		t.Fatalf("unlimited scan under RowBudget 4: err = %v, want ErrRowBudget", err)
	}
}

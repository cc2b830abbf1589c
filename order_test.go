package orthoq

// Order-equivalence harness: every TPC-H benchmark query and a fuzz
// corpus run under forced physical-operator choices — merge vs hash
// join, streaming vs hash aggregation, sort elimination on and off,
// serial and parallel — and every variant must
// return the identical multiset of rows. Wherever the query has an
// ORDER BY, the variant must additionally return the identical total
// row sequence. The DisableSortElim variant is the oracle for sort
// elimination: it always executes the explicit Sort, so an ordered
// scan that delivered the wrong order would disagree with it here.

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
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

func multisetOf(seq []string) []string {
	ms := append([]string(nil), seq...)
	sort.Strings(ms)
	return ms
}

// orderVariants is the forced-strategy grid. Baseline is DefaultConfig
// (auto join/agg, sort elimination on, serial).
var orderVariants = []struct {
	name string
	mut  func(*Config)
}{
	{"join=hash", func(c *Config) { c.JoinStrategy = "hash" }},
	{"join=merge", func(c *Config) { c.JoinStrategy = "merge" }},
	{"agg=hash", func(c *Config) { c.AggStrategy = "hash" }},
	{"agg=stream", func(c *Config) { c.AggStrategy = "stream" }},
	{"sortelim=off", func(c *Config) { c.DisableSortElim = true }},
	{"merge+stream", func(c *Config) {
		c.JoinStrategy = "merge"
		c.AggStrategy = "stream"
	}},
	{"par4", func(c *Config) { c.Parallelism = 4 }},
	{"par4+merge+stream", func(c *Config) {
		c.Parallelism = 4
		c.JoinStrategy = "merge"
		c.AggStrategy = "stream"
	}},
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
	}
	r := rand.New(rand.NewSource(1616)) // the paper's DOI suffix digits
	for i := 0; i < 14; i++ {
		qs = append(qs, randQuery(r))
	}
	return qs
}

// TestOrderEquivalence is the order-equivalence property suite: for
// each query, each forced variant must agree with the baseline — as a
// multiset always, and as an exact sequence when the query orders its
// result.
func TestOrderEquivalence(t *testing.T) {
	db := sharedDB(t)
	base := DefaultConfig()

	var sqls []string
	for _, name := range TPCHQueryNames() {
		sql, _ := TPCHQuery(name)
		sqls = append(sqls, sql)
	}
	sqls = append(sqls, orderCorpus()...)

	for i, sql := range sqls {
		want, err := db.QueryCfg(sql, base)
		if err != nil {
			t.Fatalf("query %d baseline: %v\nsql: %s", i, err, sql)
		}
		wantSeq := orderedFingerprint(want)
		wantMS := multisetOf(wantSeq)
		ordered := strings.Contains(strings.ToLower(sql), "order by")
		for _, v := range orderVariants {
			cfg := base
			v.mut(&cfg)
			got, err := db.QueryCfg(sql, cfg)
			if err != nil {
				t.Fatalf("query %d under %s: %v\nsql: %s", i, v.name, err, sql)
			}
			gotSeq := orderedFingerprint(got)
			if fmt.Sprint(multisetOf(gotSeq)) != fmt.Sprint(wantMS) {
				t.Fatalf("query %d: %s returned a different multiset\nsql: %s\nbase plan:\n%s\nvariant plan:\n%s",
					i, v.name, sql, want.Plan, got.Plan)
			}
			if ordered && fmt.Sprint(gotSeq) != fmt.Sprint(wantSeq) {
				t.Fatalf("query %d: %s broke the ORDER BY sequence\nsql: %s\nwant: %v\ngot:  %v\nvariant plan:\n%s",
					i, v.name, sql, wantSeq, gotSeq, got.Plan)
			}
		}
	}
}

// TestSortElidedOnOrderedIndex pins the tentpole end to end: an ORDER
// BY on an ordered-index key loses its Sort node (EliminateSort fires,
// the plan carries the order on the scan, EXPLAIN says so), while the
// DisableSortElim baseline keeps the Sort — and both orders agree.
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
	off.DisableSortElim = true
	r2, err := db.QueryCfg(sql, off)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r2.Plan, "Sort") {
		t.Errorf("DisableSortElim plan lost its Sort:\n%s", r2.Plan)
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

// TestMergeJoinAndStreamAggAnnotations: forcing strategies shows up in
// EXPLAIN, and the auto picks appear where the inputs arrive ordered.
func TestMergeJoinAndStreamAggAnnotations(t *testing.T) {
	db := sharedDB(t)
	join := `select o_orderkey, l_linenumber from orders join lineitem on l_orderkey = o_orderkey`
	agg := `select l_orderkey, sum(l_quantity) as q from lineitem group by l_orderkey`

	cfg := DefaultConfig()
	cfg.JoinStrategy = "merge"
	out, err := db.Explain(join, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "join=merge") {
		t.Errorf("forced merge join missing from EXPLAIN:\n%s", out)
	}

	cfg = DefaultConfig()
	cfg.AggStrategy = "stream"
	out, err = db.Explain(agg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "agg=stream") {
		t.Errorf("forced stream agg missing from EXPLAIN:\n%s", out)
	}
}

// TestOrderStrategyValidation: misspelled strategy knobs error rather
// than silently running auto.
func TestOrderStrategyValidation(t *testing.T) {
	db := sharedDB(t)
	cfg := DefaultConfig()
	cfg.JoinStrategy = "nested-loops"
	if _, err := db.QueryCfg(`select count(*) as n from orders`, cfg); err == nil ||
		!strings.Contains(err.Error(), "JoinStrategy") {
		t.Errorf("bad JoinStrategy: err = %v", err)
	}
	cfg = DefaultConfig()
	cfg.AggStrategy = "sorted"
	if _, err := db.QueryCfg(`select count(*) as n from orders`, cfg); err == nil ||
		!strings.Contains(err.Error(), "AggStrategy") {
		t.Errorf("bad AggStrategy: err = %v", err)
	}
}

// TestOrderKnobsArePlanIdentity: plans compiled under different order
// knobs never alias in the plan cache.
func TestOrderKnobsArePlanIdentity(t *testing.T) {
	a := DefaultConfig()
	b := a
	b.JoinStrategy = "merge"
	c := a
	c.AggStrategy = "stream"
	d := a
	d.DisableSortElim = true
	ids := map[string]planIdentity{}
	for name, cfg := range map[string]Config{"base": a, "merge": b, "stream": c, "noelim": d} {
		id := mustIdentity(t, cfg)
		for other, oid := range ids {
			if oid == id || oid.key() == id.key() {
				t.Errorf("identity collision between %s and %s: %q", name, other, id.key())
			}
		}
		ids[name] = id
	}
	// "auto" and "" are the same strategy and must share an identity.
	e := a
	e.JoinStrategy = "auto"
	e.AggStrategy = "auto"
	if mustIdentity(t, e) != mustIdentity(t, a) {
		t.Error("auto and empty strategy produced different plan identities")
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

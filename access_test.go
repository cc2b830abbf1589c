package orthoq

import (
	"strings"
	"testing"

	"orthoq/internal/sql/types"
)

// TestSeekSeesUnanalyzedInserts: an index seek returns the rows a scan
// returns, including rows inserted after the last Analyze and rows of
// a table never analyzed. Each query's seek spelling (an equality on
// the indexed column) is held to its scan spelling (the same equality
// on `col + 0`, which binds no index), and the traced run must show the
// seek spelling seeking the named index: a hash index, an ordered
// index sought on its whole key and on a leading prefix, a
// never-analyzed table's hash and ordered indexes (whole key and
// prefix), a correlated seek inside an Apply — into an analyzed table,
// and into the never-analyzed one, where every row the seek returns
// comes from the scan kernels and the seek is re-opened per binding —
// and a seek whose filter has a residual conjunct beside the key.
// Every case runs serial and at four workers.
func TestSeekSeesUnanalyzedInserts(t *testing.T) {
	db, err := OpenTPCH(0.001, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("orders", Row{
		types.NewInt(9999999), types.NewInt(1), types.NewString("O"), types.NewFloat(1),
		types.NewDate(9000), types.NewString("1-URGENT"), types.NewString("Clerk#000000001"),
		types.NewInt(0), types.NewString("inserted after Analyze"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("lineitem", Row{
		types.NewInt(9999999), types.NewInt(1), types.NewInt(1), types.NewInt(1),
		types.NewFloat(1), types.NewFloat(1), types.NewFloat(0), types.NewFloat(0),
		types.NewString("N"), types.NewString("O"), types.NewDate(9001), types.NewDate(9002),
		types.NewDate(9003), types.NewString("NONE"), types.NewString("MAIL"),
		types.NewString("inserted after Analyze"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(&Table{
		Name: "fresh",
		Columns: []Column{{Name: "f_id", Type: types.Int}, {Name: "f_grp", Type: types.Int},
			{Name: "f_tag", Type: types.Int}},
		Key: []int{0},
		Indexes: []Index{
			{Name: "fresh_pk", Cols: []int{0}, Unique: true, Ordered: true},
			{Name: "fresh_grp", Cols: []int{1}},
			{Name: "fresh_tag", Cols: []int{2, 0}, Ordered: true},
		},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := db.Insert("fresh", Row{types.NewInt(int64(i)), types.NewInt(int64(i % 7)), types.NewInt(int64(i % 5))}); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name, seek, scan, index string
		cfg                     Config
	}{
		{"hash", `select count(*) from orders where o_custkey = 1`,
			`select count(*) from orders where o_custkey + 0 = 1`, "orders_ck", DefaultConfig()},
		{"ordered", `select o_orderkey, o_custkey from orders where o_orderkey = 9999999`,
			`select o_orderkey, o_custkey from orders where o_orderkey + 0 = 9999999`, "orders_pk", DefaultConfig()},
		// lineitem_pk is (l_orderkey, l_linenumber): a seek on its
		// leading column alone.
		{"ordered prefix", `select l_linenumber, l_comment from lineitem where l_orderkey = 9999999`,
			`select l_linenumber, l_comment from lineitem where l_orderkey + 0 = 9999999`, "lineitem_pk", DefaultConfig()},
		{"never-analyzed hash", `select f_id from fresh where f_grp = 3`,
			`select f_id from fresh where f_grp + 0 = 3`, "fresh_grp", DefaultConfig()},
		{"never-analyzed ordered", `select f_grp from fresh where f_id = 17`,
			`select f_grp from fresh where f_id + 0 = 17`, "fresh_pk", DefaultConfig()},
		{"never-analyzed ordered prefix", `select f_id from fresh where f_tag = 2`,
			`select f_id from fresh where f_tag + 0 = 2`, "fresh_tag", DefaultConfig()},
		// With every rewrite off the subquery runs correlated: an Apply
		// seeks orders once per customer.
		{"correlated", `select c_custkey, (select count(*) from orders o where o.o_custkey = c.c_custkey) from customer c where c_custkey <= 3`,
			`select c_custkey, (select count(*) from orders o where o.o_custkey + 0 = c.c_custkey) from customer c where c_custkey <= 3`,
			"orders_ck", Config{}},
		{"correlated never-analyzed", `select c_custkey, (select sum(f_id) from fresh f where f.f_grp = c.c_custkey) from customer c where c_custkey <= 9`,
			`select c_custkey, (select sum(f_id) from fresh f where f.f_grp + 0 = c.c_custkey) from customer c where c_custkey <= 9`,
			"fresh_grp", Config{}},
		{"residual", `select o_orderkey, o_totalprice from orders where o_custkey = 1 and o_orderstatus = 'O'`,
			`select o_orderkey, o_totalprice from orders where o_custkey + 0 = 1 and o_orderstatus = 'O'`, "orders_ck", DefaultConfig()},
		// An EXISTS over a seek runs as an index-lookup probe: a batch of
		// customers looked up at once, each binding also reading the rows
		// past the index's coverage.
		{"probe", `select c_custkey from customer c where c_custkey <= 3 and exists (select o_orderkey from orders o where o.o_custkey = c.c_custkey and o.o_comment = 'inserted after Analyze')`,
			`select c_custkey from customer c where c_custkey <= 3 and exists (select o_orderkey from orders o where o.o_custkey + 0 = c.c_custkey and o.o_comment = 'inserted after Analyze')`,
			"orders_ck", Config{}},
		{"probe never-analyzed", `select c_custkey from customer c where c_custkey <= 9 and not exists (select f_id from fresh f where f.f_grp = c.c_custkey)`,
			`select c_custkey from customer c where c_custkey <= 9 and not exists (select f_id from fresh f where f.f_grp + 0 = c.c_custkey)`,
			"fresh_grp", Config{}},
	}
	for _, par := range []int{0, 4} {
		for _, c := range cases {
			cfg := c.cfg
			cfg.Parallelism = par
			want, err := db.QueryCfg(c.scan, cfg)
			if err != nil {
				t.Fatal(err)
			}
			traced := cfg
			traced.Trace = true
			got, err := db.QueryCfg(c.seek, traced)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBagTolerant(got.Data, want.Data) {
				t.Errorf("%s at parallelism %d: the seek returned %v, the scan %v", c.name, par, got.Data, want.Data)
			}
			var seeks []string
			probed := false
			for _, sp := range collectSpans(got) {
				if ix, ok := strings.CutPrefix(sp.Strategy, "seek="); ok {
					seeks = append(seeks, ix)
				}
				probed = probed || sp.Op == "Apply" && sp.Strategy == "probe"
			}
			if want := strings.HasPrefix(c.name, "probe"); probed != want {
				t.Errorf("%s at parallelism %d: an Apply ran as a probe: %v, want %v", c.name, par, probed, want)
			}
			if len(seeks) != 1 || seeks[0] != c.index {
				t.Errorf("%s at parallelism %d: the seek spelling read indexes %v, want [%s]", c.name, par, seeks, c.index)
			}
		}
	}
}

// TestExplainAccessMatchesExecution: EXPLAIN's seek= is the index the
// access reads. Over the TPC-H warm pass and the reference fuzz corpus,
// serial and at four workers, the i-th seek= of the cost-based plan
// must name the index of the i-th traced seek, both in plan preorder.
func TestExplainAccessMatchesExecution(t *testing.T) {
	seeks := explainMatchesTrace(t, "seek=", func(sp *Span) (string, bool) {
		return strings.CutPrefix(sp.Strategy, "seek=")
	})
	if seeks == 0 {
		t.Fatal("no plan in the corpus ran a seek")
	}
	t.Logf("%d seeks compared", seeks)
}

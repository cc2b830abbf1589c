package tpch

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"orthoq/internal/sql/parser"
	"orthoq/internal/storage"
)

// generatedDigest is the SHA-256 of every table's rows at SF 0.002,
// seed 1, in catalog order, each table's name followed by its rows in
// the storage codec. perfbench's golden answers are computed over this
// data, so a change to the generator that moves it shows here first.
const generatedDigest = "c5cf53faaa6728f8aea85d90670717c291775585f0d1a5a203fe5b255a212fd9"

func TestSchemaComplete(t *testing.T) {
	c := Schema()
	want := []string{"region", "nation", "supplier", "customer", "part",
		"partsupp", "orders", "lineitem"}
	for _, name := range want {
		tbl, ok := c.Table(name)
		if !ok {
			t.Fatalf("missing table %s", name)
		}
		if len(tbl.Key) == 0 {
			t.Errorf("%s has no key", name)
		}
		if len(tbl.Indexes) == 0 {
			t.Errorf("%s has no indexes", name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(0.001, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(0.001, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"customer", "orders", "lineitem", "part"} {
		ta, _ := a.Table(name)
		tb, _ := b.Table(name)
		if len(ta.Rows) != len(tb.Rows) {
			t.Fatalf("%s: %d vs %d rows", name, len(ta.Rows), len(tb.Rows))
		}
		for i := range ta.Rows {
			for j := range ta.Rows[i] {
				if ta.Rows[i][j].String() != tb.Rows[i][j].String() {
					t.Fatalf("%s row %d col %d differs", name, i, j)
				}
			}
		}
	}
	// Different seeds differ.
	c, _ := Generate(0.001, 43)
	ta, _ := a.Table("lineitem")
	tc, _ := c.Table("lineitem")
	same := len(ta.Rows) == len(tc.Rows)
	if same {
		diff := false
		for i := range ta.Rows {
			if ta.Rows[i][4].String() != tc.Rows[i][4].String() {
				diff = true
				break
			}
		}
		if !diff {
			t.Error("different seeds produced identical lineitems")
		}
	}
	// The data itself is pinned.
	st, err := Generate(0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, schema := range st.Catalog.Tables() {
		tbl, _ := st.Table(schema.Name)
		h.Write([]byte(schema.Name))
		h.Write(storage.AppendRows(nil, tbl.Version().AllRows()))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != generatedDigest {
		t.Errorf("data at SF 0.002, seed 1 digests to %s, want %s", got, generatedDigest)
	}
}

func TestGenerateRatios(t *testing.T) {
	st, err := Generate(0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := func(n string) int {
		tbl, _ := st.Table(n)
		return len(tbl.Rows)
	}
	if rows("region") != 5 || rows("nation") != 25 {
		t.Errorf("region/nation = %d/%d", rows("region"), rows("nation"))
	}
	if rows("customer") != 300 {
		t.Errorf("customer = %d, want 300", rows("customer"))
	}
	if rows("orders") != 3000 {
		t.Errorf("orders = %d, want 3000", rows("orders"))
	}
	li := rows("lineitem")
	if li < 3000*1 || li > 3000*7 {
		t.Errorf("lineitem = %d, outside [3000, 21000]", li)
	}
	if rows("partsupp") != 4*rows("part") {
		t.Errorf("partsupp = %d, want 4x part (%d)", rows("partsupp"), rows("part"))
	}
	// Referential integrity spot checks.
	ot, _ := st.Table("orders")
	nCust := int64(rows("customer"))
	for _, r := range ot.Rows {
		ck := r[1].Int()
		if ck < 1 || ck > nCust {
			t.Fatalf("order with bad custkey %d", ck)
		}
	}
	// One third of customers should have no orders.
	hasOrder := map[int64]bool{}
	for _, r := range ot.Rows {
		hasOrder[r[1].Int()] = true
	}
	orphans := 0
	for i := int64(1); i <= nCust; i++ {
		if !hasOrder[i] {
			orphans++
		}
	}
	if orphans < int(nCust)/5 || orphans > int(nCust)/2 {
		t.Errorf("customers without orders = %d of %d, want about a third", orphans, nCust)
	}
}

func TestQueriesParse(t *testing.T) {
	for name, sql := range Queries {
		if _, err := parser.Parse(sql); err != nil {
			t.Errorf("%s does not parse: %v", name, err)
		}
	}
	if len(Queries) < 8 {
		t.Errorf("expected at least 8 benchmark queries, have %d", len(Queries))
	}
}

package orthoq

// The executor's oracle. internal/reference gives a query its meaning
// by nested iteration over the normalized-but-correlated tree — the
// semantic definition the paper's rewrites are measured against — and
// shares no code with the normalizer's rewrites, the optimizer or the
// executor. Every TPC-H query, the three spellings of the paper's Q1
// and the fuzz corpus must return that bag of rows (numerics within
// the float tolerance of the parallel tests) under the default
// configuration, correlated execution, four workers, every Apply run
// batched (no index-lookup probes), and the final plan
// fed sorted inputs (so its equi-joins run as merge joins and its
// grouped aggregations stream); where the query orders its result, the
// ORDER BY key sequence must match too. The final plan of
// each configuration is also handed to the reference, so a
// disagreement says which side of the plan it is on: reference(final
// plan) ≠ reference(seed) is a rewrite bug, engine(final plan) ≠
// reference(final plan) an executor bug.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"orthoq/internal/algebra"
	"orthoq/internal/reference"
)

// bagKey buckets a row by its non-numeric values; numerics, which may
// differ in the last bits between summation orders, are left to
// approxEqualRow.
func bagKey(row Row) string {
	parts := make([]string, len(row))
	for i, v := range row {
		if v.IsNull() || !v.Kind().Numeric() {
			parts[i] = v.String()
		}
	}
	return strings.Join(parts, "|")
}

// sameBagTolerant reports whether a and b hold the same rows in any
// order, numerics compared by approxEqualRow: rows are matched greedily
// within buckets of equal non-numeric values, in near-linear time.
func sameBagTolerant(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	buckets := map[string][]Row{}
	for _, rb := range b {
		k := bagKey(rb)
		buckets[k] = append(buckets[k], rb)
	}
	for _, ra := range a {
		k := bagKey(ra)
		found := false
		for i, rb := range buckets[k] {
			if approxEqualRow(ra, rb) {
				last := len(buckets[k]) - 1
				buckets[k][i] = buckets[k][last]
				buckets[k] = buckets[k][:last]
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// orderPrefix returns the output positions of the leading ORDER BY keys
// of a plan whose root is (Top over) Sort: the columns on which two
// correct results must agree position by position. Keys that are not
// output columns end the prefix.
func orderPrefix(p *prepared) []int {
	rel := p.plan
	for {
		switch t := rel.(type) {
		case *algebra.Top:
			rel = t.Input
			continue
		case *algebra.Project:
			rel = t.Input
			continue
		case *algebra.Sort:
			var prefix []int
			for _, o := range t.By {
				pos := -1
				for i, c := range p.outCols {
					if c == o.Col {
						pos = i
					}
				}
				if pos < 0 {
					return prefix
				}
				prefix = append(prefix, pos)
			}
			return prefix
		}
		return nil
	}
}

func sameKeySequence(a, b []Row, prefix []int) bool {
	for i := range a {
		for _, pos := range prefix {
			if !approxEqualDatum(a[i][pos], b[i][pos]) {
				return false
			}
		}
	}
	return true
}

func referenceEval(t *testing.T, db *DB, p *prepared) []Row {
	t.Helper()
	rows, err := (&reference.Evaluator{Store: db.store}).Eval(p.plan, p.outCols)
	if err != nil {
		t.Fatalf("reference: %v\nplan:\n%s", err, p.text)
	}
	return rows
}

// engineVariant is one way of running a query that must agree with the
// reference: a change to the Config and, when sorted, the compiled plan
// rewritten by sortedInputs before it runs.
type engineVariant struct {
	name   string
	mut    func(*Config)
	sorted bool
}

// referenceVariants are the engine configurations held to the oracle.
var referenceVariants = []engineVariant{
	{"default", func(*Config) {}, false},
	{"correlated", func(c *Config) { c.Decorrelate = false }, false},
	{"par4", func(c *Config) { c.Parallelism = 4 }, false},
	{"batched", func(c *Config) { c.forceBatched = true }, false},
	{"sorted-inputs", func(*Config) {}, true},
}

// oracle holds queries to internal/reference under a list of engine
// variants, and records which order-exploiting operators the sorted
// variants executed (requireSortedRan).
type oracle struct {
	variants []engineVariant
	ran      map[string]bool
}

func newOracle(variants []engineVariant) *oracle {
	return &oracle{variants: variants, ran: map[string]bool{}}
}

// check holds one query on db to the oracle under every variant.
func (o *oracle) check(t *testing.T, db *DB, label, sql string, base Config) {
	t.Helper()
	seed, err := db.prepare(sql, Config{}.identity()) // normalized, correlations kept, no search
	if err != nil {
		t.Fatalf("%s: compile seed: %v\nsql: %s", label, err, sql)
	}
	want := referenceEval(t, db, seed)
	prefix := orderPrefix(seed)
	checked := map[string]bool{seed.text: true}
	for _, v := range o.variants {
		cfg := base
		v.mut(&cfg)
		final, err := db.prepare(sql, cfg.identity())
		if err != nil {
			t.Fatalf("%s/%s: compile: %v\nsql: %s", label, v.name, err, sql)
		}
		if !checked[final.text] {
			checked[final.text] = true
			if got := referenceEval(t, db, final); !sameBagTolerant(want, got) || !sameKeySequence(want, got, prefix) {
				t.Fatalf("%s/%s: the rewrites changed the answer: reference(final plan) ≠ reference(seed)\nsql: %s\nseed:\n%s\nfinal:\n%s",
					label, v.name, sql, seed.text, final.text)
			}
		}
		var got *Rows
		if v.sorted {
			got = o.runSorted(t, db, final, cfg)
		} else if got, err = db.QueryCfg(sql, cfg); err != nil {
			t.Fatalf("%s/%s: %v\nsql: %s", label, v.name, err, sql)
		}
		if !sameBagTolerant(want, got.Data) {
			t.Fatalf("%s/%s: engine disagrees with the reference\nsql: %s\nplan:\n%s\nreference:\n%s\nengine:\n%s",
				label, v.name, sql, got.Plan, roundedFingerprint(&Rows{Data: want}), roundedFingerprint(got))
		}
		if !sameKeySequence(want, got.Data, prefix) {
			t.Fatalf("%s/%s: engine breaks the ORDER BY sequence of the reference\nsql: %s\nplan:\n%s",
				label, v.name, sql, got.Plan)
		}
	}
}

// runSorted executes p's plan rewritten by sortedInputs under cfg,
// traced, and notes the merge joins and streaming aggregations it ran.
func (o *oracle) runSorted(t *testing.T, db *DB, p *prepared, cfg Config) *Rows {
	t.Helper()
	sorted := *p
	sorted.plan = sortedInputs(p.plan)
	sorted.text = algebra.FormatRel(p.md, sorted.plan)
	cfg.Trace = true
	rows, err := sorted.execute(db, nil, "bypass", false, runState{cfg: &cfg})
	if err != nil {
		t.Fatalf("sorted inputs: %v\nplan:\n%s", err, sorted.text)
	}
	noteOrderOps(sorted.plan, rows.Spans(), o.ran)
	return rows
}

// requireSortedRan fails unless the sorted runs executed a merge join
// of every kind merge join supports and a streaming aggregation: the
// harness cannot pass without running the operators it is there for.
func (o *oracle) requireSortedRan(t *testing.T) {
	t.Helper()
	for _, op := range []string{"merge inner", "merge leftouter", "merge semi", "merge antisemi", "stream"} {
		if !o.ran[op] {
			t.Errorf("no sorted-inputs run executed a %s (ran: %v)", op, o.ran)
		}
	}
}

// referenceFuzzSF is the scale factor of the fuzz half of the reference
// leg. Nested iteration is quadratic where the engine is linear — the
// corpus' "orders where exists (select ... from lineitem ...)" shapes
// cost orders × lineitem predicate evaluations — so the 80-query corpus
// runs on a quarter of sharedDB's data (75 customers, 750 orders, ~3000
// lineitems: still customers with and without orders, NULL-yielding
// subqueries, duplicate-heavy sort keys), where the oracle takes ~2 s
// instead of ~45 s. The TPC-H half stays on sharedDB (SF 0.002, under a
// second for the oracle).
const referenceFuzzSF = 0.0005

func TestReferenceEquivalence(t *testing.T) {
	base := DefaultConfig()
	t.Run("tpch", func(t *testing.T) {
		db, o := sharedDB(t), newOracle(referenceVariants)
		// The 12 TPC-H queries and the three Q1 spellings.
		for i, sql := range warmPassQueries() {
			o.check(t, db, fmt.Sprintf("query %d", i), sql, base)
		}
	})
	t.Run("fuzz", func(t *testing.T) {
		if testing.Short() {
			t.Skip("short mode")
		}
		db, err := OpenTPCH(referenceFuzzSF, 11)
		if err != nil {
			t.Fatal(err)
		}
		o := newOracle(referenceVariants)
		r := rand.New(rand.NewSource(20010521))
		seen := map[string]bool{}
		for i := 0; i < 80; i++ {
			if sql := randQuery(r); !seen[sql] {
				seen[sql] = true
				o.check(t, db, fmt.Sprintf("fuzz %d", i), sql, base)
			}
		}
		o.requireSortedRan(t)
	})
}

package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"orthoq/internal/algebra"
	"orthoq/internal/exec"
	"orthoq/internal/sql/types"
	"orthoq/internal/storage"
	"orthoq/internal/tpch"
)

// randomStore builds a randomized TPC-H-shaped database: valid keys,
// random values, dangling foreign keys allowed (they exercise the
// outerjoin and anti-join paths).
func randomStore(t testing.TB, seed int64) *storage.Store {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	st := storage.NewFromCatalog(tpch.Schema())
	ins := func(table string, rows ...types.Row) {
		tbl, ok := st.Table(table)
		if !ok {
			t.Fatalf("no table %s", table)
		}
		for _, r := range rows {
			if err := tbl.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		tbl.BuildIndexes()
	}
	d := types.MustDate("1995-06-01").Days()
	nCust := 4 + rnd.Intn(8)
	var custs []types.Row
	for i := 1; i <= nCust; i++ {
		custs = append(custs, types.Row{
			types.NewInt(int64(i)), types.NewString(fmt.Sprintf("c%d", i)),
			types.NewString("a"), types.NewInt(int64(rnd.Intn(4))),
			types.NewString("p"), types.NewFloat(float64(rnd.Intn(600) - 100)),
			types.NewString([]string{"A", "B"}[rnd.Intn(2)]), types.NewString("x"),
		})
	}
	ins("customer", custs...)
	var ords []types.Row
	nOrd := rnd.Intn(25)
	for i := 1; i <= nOrd; i++ {
		ords = append(ords, types.Row{
			types.NewInt(int64(i)), types.NewInt(int64(1 + rnd.Intn(nCust+2))), // may dangle
			types.NewString([]string{"O", "F"}[rnd.Intn(2)]),
			types.NewFloat(float64(rnd.Intn(2000))),
			types.NewDate(d + int64(rnd.Intn(100))),
			types.NewString("p"), types.NewString("c"), types.NewInt(0), types.NewString("x"),
		})
	}
	ins("orders", ords...)
	nPart := 3 + rnd.Intn(4)
	var parts []types.Row
	for i := 1; i <= nPart; i++ {
		parts = append(parts, types.Row{
			types.NewInt(int64(100 + i)), types.NewString("p"), types.NewString("m"),
			types.NewString([]string{"Brand#1", "Brand#2"}[rnd.Intn(2)]),
			types.NewString("T"), types.NewInt(int64(rnd.Intn(10))),
			types.NewString([]string{"BOX", "BAG"}[rnd.Intn(2)]),
			types.NewFloat(float64(rnd.Intn(100))), types.NewString("x"),
		})
	}
	ins("part", parts...)
	var lines []types.Row
	nLine := rnd.Intn(40)
	for i := 0; i < nLine; i++ {
		ok := 1 + rnd.Intn(nOrd+2)
		lines = append(lines, types.Row{
			types.NewInt(int64(ok)), types.NewInt(int64(100 + 1 + rnd.Intn(nPart))),
			types.NewInt(1), types.NewInt(int64(i + 1)),
			types.NewFloat(float64(1 + rnd.Intn(20))),
			types.NewFloat(float64(rnd.Intn(500))),
			types.NewFloat(0), types.NewFloat(0),
			types.NewString("N"), types.NewString("O"),
			types.NewDate(d), types.NewDate(d + 2), types.NewDate(d + int64(rnd.Intn(6))),
			types.NewString("i"), types.NewString("AIR"), types.NewString("x"),
		})
	}
	ins("lineitem", lines...)
	return st
}

// execPlan runs a plan and returns a sorted fingerprint of the
// projected columns.
func execPlan(t testing.TB, st *storage.Store, md *algebra.Metadata,
	rel algebra.Rel, out []algebra.ColID) []string {
	t.Helper()
	ctx := exec.NewContext(st, md)
	ctx.RowBudget = 5_000_000
	res, err := exec.Run(ctx, rel, out)
	if err != nil {
		t.Fatalf("run: %v\nplan:\n%s", err, algebra.FormatRel(md, rel))
	}
	keys := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		parts := make([]string, len(row))
		for j, dd := range row {
			// Round floats so different summation orders agree.
			if dd.Kind() == types.Float && !dd.IsNull() {
				parts[j] = fmt.Sprintf("%.6f", dd.Float())
			} else {
				parts[j] = dd.String()
			}
		}
		keys[i] = strings.Join(parts, "|")
	}
	sort.Strings(keys)
	return keys
}

// applyFirst rewrites the first node (pre-order) where try succeeds.
func applyFirst(rel algebra.Rel, try func(algebra.Rel) (algebra.Rel, bool)) (algebra.Rel, bool) {
	if nr, ok := try(rel); ok {
		return nr, true
	}
	ins := rel.Inputs()
	for i, c := range ins {
		if nc, ok := applyFirst(c, try); ok {
			kids := make([]algebra.Rel, len(ins))
			copy(kids, ins)
			kids[i] = nc
			return rel.WithInputs(kids), true
		}
	}
	return rel, false
}

// checkRewriteEquivalence normalizes sql, applies the rewrite at the
// first applicable position, and verifies both plans agree on many
// random databases. It requires the rewrite to fire on at least half
// the seeds (so a vacuous pattern cannot silently pass).
func checkRewriteEquivalence(t *testing.T, sql string,
	try func(*algebra.Metadata, algebra.Rel) (algebra.Rel, bool)) {
	t.Helper()
	fired := 0
	const seeds = 12
	for seed := int64(0); seed < seeds; seed++ {
		st := randomStore(t, seed)
		res, md := algebrizeSQL(t, sql)
		rel, err := Normalize(md, res.Rel, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rewritten, ok := applyFirst(rel, func(n algebra.Rel) (algebra.Rel, bool) {
			return try(md, n)
		})
		if !ok {
			continue
		}
		fired++
		base := execPlan(t, st, md, rel, res.OutCols)
		got := execPlan(t, st, md, rewritten, res.OutCols)
		if fmt.Sprint(base) != fmt.Sprint(got) {
			t.Fatalf("seed %d: rewrite changed results\nbase: %v\ngot:  %v\nplan:\n%s",
				seed, base, got, algebra.FormatRel(md, rewritten))
		}
	}
	if fired < seeds/2 {
		t.Fatalf("rewrite fired on only %d/%d seeds — pattern too narrow", fired, seeds)
	}
}

const sumPerCustomer = `
	select c_custkey,
		(select sum(o_totalprice) from orders where o_custkey = c_custkey) as total
	from customer`

const countPerCustomer = `
	select c_custkey,
		(select count(*) from orders where o_custkey = c_custkey) as n
	from customer`

const filteredSum = `
	select c_custkey from customer
	where 100 < (select sum(o_totalprice) from orders where o_custkey = c_custkey)`

func TestEquivalencePushGroupByBelowOuterJoin(t *testing.T) {
	// sum: NULL-on-empty, no compensating project.
	checkRewriteEquivalence(t, sumPerCustomer, func(md *algebra.Metadata, n algebra.Rel) (algebra.Rel, bool) {
		gb, ok := n.(*algebra.GroupBy)
		if !ok {
			return nil, false
		}
		return TryPushGroupByBelowJoin(md, algebra.TreeCols{}, gb)
	})
}

func TestEquivalencePushGroupByBelowOuterJoinCount(t *testing.T) {
	// count: non-NULL on empty — exercises the §3.2 compensating
	// project on databases with customers lacking orders.
	checkRewriteEquivalence(t, countPerCustomer, func(md *algebra.Metadata, n algebra.Rel) (algebra.Rel, bool) {
		gb, ok := n.(*algebra.GroupBy)
		if !ok {
			return nil, false
		}
		return TryPushGroupByBelowJoin(md, algebra.TreeCols{}, gb)
	})
}

func TestEquivalencePushGroupByBelowInnerJoin(t *testing.T) {
	checkRewriteEquivalence(t, filteredSum, func(md *algebra.Metadata, n algebra.Rel) (algebra.Rel, bool) {
		gb, ok := n.(*algebra.GroupBy)
		if !ok {
			return nil, false
		}
		if _, isJoin := gb.Input.(*algebra.Join); !isJoin {
			return nil, false
		}
		if gb.Input.(*algebra.Join).Kind != algebra.InnerJoin {
			return nil, false
		}
		return TryPushGroupByBelowJoin(md, algebra.TreeCols{}, gb)
	})
}

func TestEquivalencePullGroupByAboveJoin(t *testing.T) {
	// Push then pull: pull must re-derive an equivalent plan.
	checkRewriteEquivalence(t, filteredSum, func(md *algebra.Metadata, n algebra.Rel) (algebra.Rel, bool) {
		gb, ok := n.(*algebra.GroupBy)
		if !ok {
			return nil, false
		}
		pushed, ok := TryPushGroupByBelowJoin(md, algebra.TreeCols{}, gb)
		if !ok {
			return nil, false
		}
		j, ok := pushed.(*algebra.Join)
		if !ok {
			return nil, false
		}
		return TryPullGroupByAboveJoin(md, algebra.TreeCols{}, j)
	})
}

func TestEquivalenceSplitGroupBy(t *testing.T) {
	checkRewriteEquivalence(t, `
		select o_custkey, sum(o_totalprice) as s, count(*) as n,
		       min(o_totalprice) as mn, max(o_totalprice) as mx,
		       avg(o_totalprice) as a
		from orders group by o_custkey`,
		func(md *algebra.Metadata, n algebra.Rel) (algebra.Rel, bool) {
			gb, ok := n.(*algebra.GroupBy)
			if !ok || gb.Kind != algebra.VectorGroupBy {
				return nil, false
			}
			return TrySplitGroupBy(md, gb)
		})
}

func TestEquivalenceLocalAggPush(t *testing.T) {
	checkRewriteEquivalence(t, `
		select c_name, sum(o_totalprice) as total, count(*) as n
		from customer join orders on o_custkey = c_custkey
		group by c_name`,
		func(md *algebra.Metadata, n algebra.Rel) (algebra.Rel, bool) {
			gb, ok := n.(*algebra.GroupBy)
			if !ok || gb.Kind != algebra.VectorGroupBy {
				return nil, false
			}
			split, ok := TrySplitGroupBy(md, gb)
			if !ok {
				return nil, false
			}
			// Locate the local half and push it below the join.
			return applyFirst(split, func(m algebra.Rel) (algebra.Rel, bool) {
				lg, ok := m.(*algebra.GroupBy)
				if !ok || lg.Kind != algebra.LocalGroupBy {
					return nil, false
				}
				return TryPushLocalGroupByBelowJoin(md, algebra.TreeCols{}, lg)
			})
		})
}

func TestEquivalenceSemiJoinBelowGroupBy(t *testing.T) {
	// WHERE ... IN places the semijoin below the GroupBy during
	// normalization, so construct the (G R) ⋉ S shape directly: an
	// aggregate per customer semijoined with wealthy customers.
	for seed := int64(0); seed < 12; seed++ {
		st := randomStore(t, seed)
		res, md := algebrizeSQL(t, `
			select o_custkey, sum(o_totalprice) as total
			from orders group by o_custkey`)
		gb, ok := res.Rel.(*algebra.GroupBy)
		if !ok {
			// projection may be identity-collapsed or not
			g, found := applyFirst(res.Rel, func(n algebra.Rel) (algebra.Rel, bool) {
				if x, isGB := n.(*algebra.GroupBy); isGB {
					return x, true
				}
				return nil, false
			})
			if !found {
				t.Fatal("no GroupBy")
			}
			gb = g.(*algebra.GroupBy)
		}
		custRes, _ := algebrizeSQLShared(t, md, `select c_custkey from customer where c_acctbal > 0`)
		oc := gb.GroupCols.Ordered()[0]
		sj := &algebra.Join{Kind: algebra.SemiJoin, Left: gb, Right: custRes.Rel,
			On: &algebra.Cmp{Op: algebra.CmpEq,
				L: &algebra.ColRef{Col: oc}, R: &algebra.ColRef{Col: custRes.OutCols[0]}}}
		pushed, ok := TryPushSemiJoinBelowGroupBy(md, algebra.TreeCols{}, sj)
		if !ok {
			t.Fatalf("seed %d: push refused", seed)
		}
		base := execPlan(t, st, md, sj, res.OutCols)
		got := execPlan(t, st, md, pushed, res.OutCols)
		if fmt.Sprint(base) != fmt.Sprint(got) {
			t.Fatalf("seed %d: semijoin push changed results\nbase: %v\ngot:  %v", seed, base, got)
		}
	}
}

const selfJoinAvg = `
	select l.l_orderkey, l.l_linenumber
	from lineitem l,
		(select l2.l_partkey as pk, avg(l2.l_quantity) as aq
		 from lineitem l2 group by l2.l_partkey) as agg
	where l.l_partkey = pk and l.l_quantity < aq`

func TestEquivalenceSegmentApplyIntro(t *testing.T) {
	checkRewriteEquivalence(t, selfJoinAvg, func(md *algebra.Metadata, n algebra.Rel) (algebra.Rel, bool) {
		j, ok := n.(*algebra.Join)
		if !ok {
			return nil, false
		}
		return TryIntroduceSegmentApply(md, algebra.TreeCols{}, j)
	})
}

func TestEquivalenceSegmentApplyJoinPushdown(t *testing.T) {
	// Build SegmentApply first, join it with part, push the join below.
	for seed := int64(0); seed < 8; seed++ {
		st := randomStore(t, seed)
		res, md := algebrizeSQL(t, selfJoinAvg)
		rel, err := Normalize(md, res.Rel, Options{})
		if err != nil {
			t.Fatal(err)
		}
		withSeg, ok := applyFirst(rel, func(n algebra.Rel) (algebra.Rel, bool) {
			j, isJ := n.(*algebra.Join)
			if !isJ {
				return nil, false
			}
			return TryIntroduceSegmentApply(md, algebra.TreeCols{}, j)
		})
		if !ok {
			t.Fatalf("seed %d: no segment apply", seed)
		}
		// Join each plan against part on the segmenting column and push.
		partRes, _ := algebrizeSQLShared(t, md, `select p_partkey from part where p_size < 8`)
		var sa *algebra.SegmentApply
		algebra.VisitRel(withSeg, func(n algebra.Rel) bool {
			if s, isSA := n.(*algebra.SegmentApply); isSA && sa == nil {
				sa = s
			}
			return true
		})
		var segKey algebra.ColID
		sa.SegmentCols.ForEach(func(c algebra.ColID) {
			if md.Alias(c) == "l_partkey" {
				segKey = c
			}
		})
		if segKey == 0 {
			t.Fatalf("seed %d: no l_partkey segment col", seed)
		}
		join := &algebra.Join{Kind: algebra.InnerJoin, Left: sa, Right: partRes.Rel,
			On: &algebra.Cmp{Op: algebra.CmpEq,
				L: &algebra.ColRef{Col: segKey}, R: &algebra.ColRef{Col: partRes.OutCols[0]}}}
		pushed, ok := TryPushJoinBelowSegmentApply(md, algebra.TreeCols{}, join)
		if !ok {
			t.Fatalf("seed %d: pushdown refused", seed)
		}
		out := append(append([]algebra.ColID(nil), res.OutCols...), partRes.OutCols[0])
		base := execPlan(t, st, md, join, out)
		got := execPlan(t, st, md, pushed, out)
		if fmt.Sprint(base) != fmt.Sprint(got) {
			t.Fatalf("seed %d: pushdown changed results\nbase: %v\ngot:  %v", seed, base, got)
		}
	}
}

// TestEquivalenceClass2Identities exercises identities (5)/(7) (union
// and cross-product under Apply) by comparing default-correlated
// execution against RemoveClass2 plans on random data.
func TestEquivalenceClass2Identities(t *testing.T) {
	const q = `
		select c_custkey from customer
		where 200 > (select sum(v) from
			(select o_totalprice as v from orders where o_custkey = c_custkey
			 union all
			 select c2.c_acctbal as v from customer c2 where c2.c_custkey = c_custkey) as u)`
	for seed := int64(0); seed < 8; seed++ {
		st := randomStore(t, seed)
		res, md := algebrizeSQL(t, q)
		corr, err := Normalize(md, res.Rel, Options{KeepCorrelated: true})
		if err != nil {
			t.Fatal(err)
		}
		res2, md2 := algebrizeSQL(t, q)
		flat, err := Normalize(md2, res2.Rel, Options{RemoveClass2: true})
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(algebra.FormatRel(md2, flat), "Apply") {
			t.Fatalf("seed %d: class-2 apply not removed:\n%s", seed, algebra.FormatRel(md2, flat))
		}
		base := execPlan(t, st, md, corr, res.OutCols)
		got := execPlan(t, st, md2, flat, res2.OutCols)
		if fmt.Sprint(base) != fmt.Sprint(got) {
			t.Fatalf("seed %d: identity (5) changed results\nbase: %v\ngot:  %v", seed, base, got)
		}
	}
}

func TestEquivalenceSemiJoinToJoinDistinct(t *testing.T) {
	checkRewriteEquivalence(t, `
		select c_custkey, c_name from customer
		where exists (select o_orderkey from orders
		              where o_custkey = c_custkey and o_totalprice > 300)`,
		func(md *algebra.Metadata, n algebra.Rel) (algebra.Rel, bool) {
			j, ok := n.(*algebra.Join)
			if !ok {
				return nil, false
			}
			return TrySemiJoinToJoinDistinct(md, algebra.TreeCols{}, j)
		})
}

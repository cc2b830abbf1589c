package core

import (
	"bytes"
	"maps"
	"os"
	"strings"
	"testing"

	"orthoq/internal/algebra"
	"orthoq/internal/algebrize"
	"orthoq/internal/sql/parser"
	"orthoq/internal/sql/types"
	"orthoq/internal/tpch"
)

// matchTrees is matchRels on the instance keys of two trees.
func matchTrees(a, b algebra.Rel) (map[algebra.ColID]algebra.ColID, bool) {
	return matchRels(algebra.InstanceOf(a), algebra.InstanceOf(b))
}

// renameMatch is the reference instance keys are held to: b is an
// instance of a when the columns the two trees produce, zipped in
// preorder, are a bijection under which b, renamed by remapRel,
// renders node for node as a does under algebra.AppendNodeKey. It
// returns the bijection, from b's produced columns to a's.
func renameMatch(a, b algebra.Rel) (map[algebra.ColID]algebra.ColID, bool) {
	na, nb := preorder(nil, a), preorder(nil, b)
	if len(na) != len(nb) {
		return nil, false
	}
	remap := make(map[algebra.ColID]algebra.ColID)
	for i, n := range na {
		if !inMatchDomain(n) {
			return nil, false
		}
		pa, pb := algebra.ProducedCols(n), algebra.ProducedCols(nb[i])
		if len(pa) != len(pb) {
			return nil, false
		}
		for j, c := range pb {
			remap[c] = pa[j]
		}
	}
	var ka, kb []byte
	for i, n := range preorder(nb[:0], remapRel(b, remap)) {
		ka, kb = algebra.AppendNodeKey(ka[:0], na[i]), algebra.AppendNodeKey(kb[:0], n)
		if !bytes.Equal(ka, kb) {
			return nil, false
		}
	}
	return remap, true
}

// inMatchDomain reports whether n is an operator instance keys read.
func inMatchDomain(n algebra.Rel) bool {
	switch n.(type) {
	case *algebra.Get, *algebra.Select, *algebra.Project, *algebra.GroupBy, *algebra.Join:
		return true
	}
	return false
}

// preorder appends r's nodes to dst, each before its inputs.
func preorder(dst []algebra.Rel, r algebra.Rel) []algebra.Rel {
	dst = append(dst, r)
	for _, c := range r.Inputs() {
		dst = preorder(dst, c)
	}
	return dst
}

// fuzzSlice returns the fuzz queries the optimizer's pinned searches
// run (internal/opt/testdata/plans.golden), each once.
func fuzzSlice(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("../opt/testdata/plans.golden")
	if err != nil {
		t.Fatal(err)
	}
	qs := map[string]string{}
	for _, rec := range strings.Split(string(data), "\n=== ")[1:] {
		head, rest, _ := strings.Cut(rec, "\n")
		name, _, _ := strings.Cut(head, " ")
		sqlLine, _, _ := strings.Cut(rest, "\n")
		if sql, ok := strings.CutPrefix(sqlLine, "sql: "); ok && strings.HasPrefix(name, "fuzz") {
			qs[name] = sql
		}
	}
	if len(qs) < 20 {
		t.Fatalf("read %d fuzz queries from the pinned searches", len(qs))
	}
	return qs
}

// TestInstanceKeysMatchRenaming holds instance keys to renameMatch: over
// every pair of keyed subtrees of each of the 12 TPC-H queries and the
// optimizer's pinned fuzz slice, normalized with and without
// decorrelation, two keys are equal exactly when renaming finds a
// bijection, and the zip of the keys' columns is that bijection; a clone
// has its original's key, and the zip is the clone's inverse map. Pairs
// built to differ only where a key could lose a distinction — a
// constant's kind, an outer reference against a produced column — are
// held to the reference as well.
func TestInstanceKeysMatchRenaming(t *testing.T) {
	check := func(name string, md *algebra.Metadata, a, b algebra.Rel) bool {
		t.Helper()
		got, keyed := matchTrees(a, b)
		want, renamed := renameMatch(a, b)
		if keyed != renamed || keyed && !maps.Equal(got, want) {
			t.Errorf("%s: keys say %t (%v), renaming says %t (%v) for\n%s--- and\n%s",
				name, keyed, got, renamed, want, algebra.FormatRel(md, a), algebra.FormatRel(md, b))
		}
		return keyed
	}

	queries := fuzzSlice(t)
	for name, sql := range tpch.Queries {
		queries[name] = sql
	}
	pairs, equal, clones := 0, 0, 0
	for name, sql := range queries {
		q, err := parser.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, opts := range []Options{{}, {KeepCorrelated: true}} {
			md := algebra.NewMetadata()
			built, err := algebrize.Build(tpch.Schema(), md, q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			r, err := Normalize(md, built.Rel, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var subs []algebra.Rel
			algebra.VisitRel(r, func(sub algebra.Rel) bool {
				if algebra.InstanceOf(sub).Key != "" {
					subs = append(subs, sub)
				}
				return true
			})
			for i, a := range subs {
				for _, b := range subs[i+1:] {
					pairs++
					if check(name, md, a, b) {
						equal++
					}
				}
				clone, remap := cloneWithFreshCols(md, a)
				inverse := make(map[algebra.ColID]algebra.ColID, len(remap))
				for from, to := range remap {
					inverse[to] = from
				}
				if back, ok := matchTrees(a, clone); !ok || !maps.Equal(back, inverse) {
					t.Errorf("%s: the clone of\n%shas another key, or the zip %v is not its inverse map %v",
						name, algebra.FormatRel(md, a), back, inverse)
				}
				clones++
			}
		}
	}
	if equal < 20 || clones < 500 {
		t.Errorf("%d pairs, %d with equal keys, %d clones: the test lost its subjects", pairs, equal, clones)
	}
	t.Logf("%d pairs of subtrees, %d of them instances of one expression; %d clones", pairs, equal, clones)

	md := algebra.NewMetadata()
	// An outer reference whose ID is the position of a produced column.
	outer := md.AddColumn("x", types.Int)
	get := func() (*algebra.Get, algebra.ColID, algebra.ColID) {
		g := &algebra.Get{Table: "orders", Cols: []algebra.ColID{md.AddColumn("k", types.Int), md.AddColumn("c", types.Int)}}
		return g, g.Cols[0], g.Cols[1]
	}
	eq := func(l, r algebra.ColID) algebra.Scalar {
		return &algebra.Cmp{Op: algebra.CmpEq, L: &algebra.ColRef{Col: l}, R: &algebra.ColRef{Col: r}}
	}
	ga, k, c := get()
	gb, k2, _ := get()
	if check("outer reference", md, &algebra.Select{Input: ga, Filter: eq(k, c)}, &algebra.Select{Input: gb, Filter: eq(k2, outer)}) {
		t.Error("an outer reference matched a produced column")
	}
	// Constants of two kinds that print alike.
	div := func(g *algebra.Get, by types.Datum) algebra.Rel {
		return &algebra.Project{Input: g, Items: []algebra.ProjItem{{Col: md.AddColumn("v", types.Float),
			Expr: &algebra.Arith{Op: types.OpDiv, L: &algebra.ColRef{Col: g.Cols[1]}, R: &algebra.Const{Val: by}}}}}
	}
	ga, _, _ = get()
	gb, _, _ = get()
	if check("constant kinds", md, div(ga, types.NewInt(2)), div(gb, types.NewFloat(2))) {
		t.Error("an Int constant matched a Float one")
	}
}

package algebra

// Physical ordering properties. An []Ordering describes a total order
// on rows: sorted by the first key, ties broken by the second, and so
// on. DeliveredOrder derives the order a subtree is guaranteed to
// produce; OrderCovers / GroupedBy test whether that guarantee
// satisfies a requirement. The derivation is deliberately conservative:
// operators whose physical implementation may destroy order (hash
// join, hash aggregation, exchange) deliver no order, so a consumer
// that finds its requirement covered can always trust it regardless of
// which physical alternative the executor picks.

// DeliveredOrder returns the row order the subtree guarantees, or nil
// when it guarantees none. A Get with Order set is the root source of
// ordering (the executor honors it with an ordered index scan or an
// explicit sort); Sort establishes its keys; filters, limits, and
// column-preserving projections pass order through.
func DeliveredOrder(r Rel) []Ordering { return DeriveDeliveredOrder(FromScratch{r}, r) }

// DeriveDeliveredOrder computes r's delivered order from its input's,
// which it asks p for.
func DeriveDeliveredOrder(p Props, r Rel) []Ordering {
	switch t := r.(type) {
	case *Get:
		return t.Order
	case *Sort:
		return t.By
	case *Select, *Top, *Max1Row, *RowNumber:
		return p.DeliveredOrder(0)
	case *Project:
		// Order survives projection up to the longest prefix whose
		// columns are still visible in the output.
		in := p.DeliveredOrder(0)
		if len(in) == 0 {
			return nil
		}
		out := DeriveOutputCols(p, t)
		n := 0
		for _, o := range in {
			if !out.Contains(o.Col) {
				break
			}
			n++
		}
		return in[:n]
	}
	// Join, Apply, GroupBy, SegmentApply, UnionAll, Difference, Values,
	// Exchange: no guarantee — the physical choice (hash vs merge) or
	// the workers' interleaving may destroy any input order.
	return nil
}

// OrderCovers reports whether rows ordered by delivered are necessarily
// ordered by required: required must be a prefix of delivered with
// matching directions. Rows sorted by (a, b) are sorted by (a), but
// not vice versa.
func OrderCovers(delivered, required []Ordering) bool {
	if len(required) > len(delivered) {
		return false
	}
	for i, o := range required {
		if delivered[i].Col != o.Col || delivered[i].Desc != o.Desc {
			return false
		}
	}
	return true
}

// GroupedBy reports whether rows ordered by delivered have all rows of
// each group (equal on every column of g) contiguous: some prefix of
// delivered must mention exactly the columns of g. Sorted by (a, b),
// groups on {a} and on {a, b} are contiguous; groups on {b} or
// {a, b, d} are not.
func GroupedBy(delivered []Ordering, g ColSet) bool {
	if g.Empty() {
		return true // a single global group is trivially contiguous
	}
	var seen ColSet
	for _, o := range delivered {
		if !g.Contains(o.Col) {
			return false
		}
		seen.Add(o.Col)
		if seen.Len() == g.Len() {
			return true
		}
	}
	return false
}

// OrderingCols returns the set of columns an ordering mentions.
func OrderingCols(by []Ordering) ColSet {
	var s ColSet
	for _, o := range by {
		s.Add(o.Col)
	}
	return s
}

// OrderingsEqual reports key-by-key equality.
func OrderingsEqual(a, b []Ordering) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

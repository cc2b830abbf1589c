// Package algebra defines the logical relational algebra used by the
// optimizer: relational operators (including the paper's Apply and
// SegmentApply), scalar expression trees, column metadata, and derived
// logical properties (output columns, outer references, keys,
// nullability).
//
// The representation follows Galindo-Legaria & Joshi (SIGMOD 2001):
// columns carry global IDs, correlation is visible as free column
// references, and all operators are bag-oriented.
package algebra

import (
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// ColID identifies a column across the whole query. IDs are allocated
// by Metadata and never reused, so a column reference is unambiguous no
// matter where the expression tree is transplanted.
type ColID int

// inlineCols is the number of column IDs a ColSet holds without a heap
// allocation. Queries rarely allocate more columns than this; the IDs
// beyond it are mostly the fresh columns optimizer rules mint.
const inlineCols = 128

// ColSet is a set of column IDs. The zero value is the empty set. It is
// a value type: assigning or passing a ColSet copies the set, and
// mutating the copy never changes the original.
//
// IDs below inlineCols live in two inline words; larger IDs live in an
// overflow slice that is never written after it is published — every
// mutation touching it installs a fresh slice — which is what lets
// copies share it. The overflow carries no trailing zero words, so
// equal sets have equal representations.
type ColSet struct {
	lo [inlineCols / 64]uint64
	hi []uint64 // bit i of hi[w] is column inlineCols + 64*w + i
}

// NewColSet builds a set from the given columns.
func NewColSet(cols ...ColID) ColSet {
	var s ColSet
	top := ColID(-1)
	for _, c := range cols {
		if c > top {
			top = c
		}
	}
	if top >= inlineCols {
		s.hi = make([]uint64, (int(top)-inlineCols)/64+1)
	}
	for _, c := range cols {
		if c < inlineCols {
			s.lo[c/64] |= 1 << (c % 64)
		} else {
			s.hi[(c-inlineCols)/64] |= 1 << (c % 64)
		}
	}
	return s
}

// trimmed drops trailing zero words, keeping the representation
// canonical.
func trimmed(w []uint64) []uint64 {
	n := len(w)
	for n > 0 && w[n-1] == 0 {
		n--
	}
	if n == 0 {
		return nil
	}
	return w[:n]
}

// Add inserts col.
func (s *ColSet) Add(col ColID) {
	if col < inlineCols {
		s.lo[col/64] |= 1 << (col % 64)
		return
	}
	if s.Contains(col) {
		return
	}
	w := (int(col) - inlineCols) / 64
	hi := make([]uint64, max(len(s.hi), w+1))
	copy(hi, s.hi)
	hi[w] |= 1 << (col % 64)
	s.hi = hi
}

// Remove deletes col.
func (s *ColSet) Remove(col ColID) {
	if !s.Contains(col) {
		return
	}
	if col < inlineCols {
		s.lo[col/64] &^= 1 << (col % 64)
		return
	}
	hi := slices.Clone(s.hi)
	hi[(int(col)-inlineCols)/64] &^= 1 << (col % 64)
	s.hi = trimmed(hi)
}

// Contains reports membership.
func (s ColSet) Contains(col ColID) bool {
	if col < inlineCols {
		return col >= 0 && s.lo[col/64]&(1<<(col%64)) != 0
	}
	w := (int(col) - inlineCols) / 64
	return w < len(s.hi) && s.hi[w]&(1<<(col%64)) != 0
}

// Empty reports whether the set has no members.
func (s ColSet) Empty() bool { return s.lo[0]|s.lo[1] == 0 && len(s.hi) == 0 }

// Len returns the cardinality.
func (s ColSet) Len() int {
	n := bits.OnesCount64(s.lo[0]) + bits.OnesCount64(s.lo[1])
	for _, w := range s.hi {
		n += bits.OnesCount64(w)
	}
	return n
}

// Copy returns an independent copy. Plain assignment does the same;
// Copy remains for call sites that want to say so.
func (s ColSet) Copy() ColSet { return s }

// UnionWith adds all members of o to s.
func (s *ColSet) UnionWith(o ColSet) {
	s.lo[0] |= o.lo[0]
	s.lo[1] |= o.lo[1]
	switch {
	case len(o.hi) == 0:
	case len(s.hi) == 0:
		s.hi = o.hi // shared: overflow words are immutable
	default:
		hi := make([]uint64, max(len(s.hi), len(o.hi)))
		copy(hi, s.hi)
		for i, w := range o.hi {
			hi[i] |= w
		}
		s.hi = hi
	}
}

// Union returns s ∪ o.
func (s ColSet) Union(o ColSet) ColSet {
	s.UnionWith(o)
	return s
}

// DifferenceWith removes all members of o from s.
func (s *ColSet) DifferenceWith(o ColSet) {
	s.lo[0] &^= o.lo[0]
	s.lo[1] &^= o.lo[1]
	if len(s.hi) == 0 || len(o.hi) == 0 {
		return
	}
	hi := slices.Clone(s.hi)
	for i := 0; i < min(len(hi), len(o.hi)); i++ {
		hi[i] &^= o.hi[i]
	}
	s.hi = trimmed(hi)
}

// Difference returns s \ o.
func (s ColSet) Difference(o ColSet) ColSet {
	s.DifferenceWith(o)
	return s
}

// Intersection returns s ∩ o.
func (s ColSet) Intersection(o ColSet) ColSet {
	r := ColSet{lo: [2]uint64{s.lo[0] & o.lo[0], s.lo[1] & o.lo[1]}}
	if n := min(len(s.hi), len(o.hi)); n > 0 {
		hi := make([]uint64, n)
		for i := range hi {
			hi[i] = s.hi[i] & o.hi[i]
		}
		r.hi = trimmed(hi)
	}
	return r
}

// Intersects reports whether the sets share a member.
func (s ColSet) Intersects(o ColSet) bool {
	if s.lo[0]&o.lo[0]|s.lo[1]&o.lo[1] != 0 {
		return true
	}
	for i := 0; i < min(len(s.hi), len(o.hi)); i++ {
		if s.hi[i]&o.hi[i] != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports s ⊆ o.
func (s ColSet) SubsetOf(o ColSet) bool {
	if s.lo[0]&^o.lo[0]|s.lo[1]&^o.lo[1] != 0 || len(s.hi) > len(o.hi) {
		return false
	}
	for i, w := range s.hi {
		if w&^o.hi[i] != 0 {
			return false
		}
	}
	return true
}

// Equals reports set equality.
func (s ColSet) Equals(o ColSet) bool {
	return s.lo == o.lo && slices.Equal(s.hi, o.hi)
}

// Ordered returns the members in ascending order.
func (s ColSet) Ordered() []ColID {
	out := make([]ColID, 0, s.Len())
	s.ForEach(func(c ColID) { out = append(out, c) })
	return out
}

// ForEach calls f for each member in ascending order.
func (s ColSet) ForEach(f func(ColID)) {
	each := func(base int, w uint64) {
		for ; w != 0; w &= w - 1 {
			f(ColID(base + bits.TrailingZeros64(w)))
		}
	}
	each(0, s.lo[0])
	each(64, s.lo[1])
	for i, w := range s.hi {
		each(inlineCols+64*i, w)
	}
}

// String renders the set as (1,2,3).
func (s ColSet) String() string {
	var b strings.Builder
	b.WriteByte('(')
	s.ForEach(func(c ColID) {
		if b.Len() > 1 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(c)))
	})
	b.WriteByte(')')
	return b.String()
}

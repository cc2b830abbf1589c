package algebra

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refSet is the reference model: the map-backed set ColSet used to be.
type refSet map[ColID]struct{}

func (m refSet) ordered() []ColID {
	out := make([]ColID, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

func (m refSet) clone() refSet {
	o := refSet{}
	for c := range m {
		o[c] = struct{}{}
	}
	return o
}

// boundaryIDs straddle the inline words and the overflow slice.
var boundaryIDs = []ColID{0, 1, 62, 63, 64, 65, 126, 127, 128, 129, 191, 192, 500}

func randID(r *rand.Rand) ColID {
	if r.Intn(3) == 0 {
		return boundaryIDs[r.Intn(len(boundaryIDs))]
	}
	return ColID(r.Intn(260))
}

// agree checks every observer of s against the model.
func agree(t *testing.T, step string, s ColSet, m refSet) {
	t.Helper()
	want := m.ordered()
	if got := s.Ordered(); !slices.Equal(got, want) {
		t.Fatalf("%s: Ordered = %v, want %v", step, got, want)
	}
	if s.Len() != len(m) || s.Empty() != (len(m) == 0) {
		t.Fatalf("%s: Len/Empty = %d/%t, want %d", step, s.Len(), s.Empty(), len(m))
	}
	var each []ColID
	s.ForEach(func(c ColID) { each = append(each, c) })
	if !slices.Equal(each, want) {
		t.Fatalf("%s: ForEach = %v, want %v", step, each, want)
	}
	for _, c := range boundaryIDs {
		if _, in := m[c]; s.Contains(c) != in {
			t.Fatalf("%s: Contains(%d) = %t", step, c, !in)
		}
	}
	if !s.Equals(NewColSet(want...)) || !NewColSet(want...).Equals(s) {
		t.Fatalf("%s: not Equal to a set rebuilt from its members %v", step, want)
	}
}

// TestColSetMatchesMapModel drives ColSet and a map through the same
// random operation sequences — with IDs forced across the boundary
// between the inline words and the overflow slice — and compares every
// observer after every step. Operands of binary operations must come
// out unchanged.
func TestColSetMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		var s, o ColSet
		m, om := refSet{}, refSet{}
		for step := 0; step < 300; step++ {
			if r.Intn(25) == 0 {
				s, o, m, om = o, s, om, m
			}
			id := randID(r)
			var name string
			switch r.Intn(10) {
			case 0, 1, 2:
				name = fmt.Sprintf("Add(%d)", id)
				s.Add(id)
				m[id] = struct{}{}
			case 3:
				name = fmt.Sprintf("Remove(%d)", id)
				s.Remove(id)
				delete(m, id)
			case 4:
				name = "UnionWith"
				s.UnionWith(o)
				for c := range om {
					m[c] = struct{}{}
				}
			case 5:
				name = "DifferenceWith"
				s.DifferenceWith(o)
				for c := range om {
					delete(m, c)
				}
			case 6:
				name = "Intersection"
				s = s.Intersection(o)
				for c := range m {
					if _, in := om[c]; !in {
						delete(m, c)
					}
				}
			case 7:
				name = "Union/Difference (pure)"
				u, d := s.Union(o), s.Difference(o)
				um, dm := m.clone(), m.clone()
				for c := range om {
					um[c] = struct{}{}
					delete(dm, c)
				}
				agree(t, name+" union", u, um)
				agree(t, name+" difference", d, dm)
			case 8:
				name = "predicates"
				subset, intersects := true, false
				for c := range m {
					if _, in := om[c]; in {
						intersects = true
					} else {
						subset = false
					}
				}
				if s.SubsetOf(o) != subset || s.Intersects(o) != intersects ||
					s.Equals(o) != (subset && len(m) == len(om)) {
					t.Fatalf("seed %d step %d: SubsetOf/Intersects/Equals = %t/%t/%t on %v vs %v",
						seed, step, s.SubsetOf(o), s.Intersects(o), s.Equals(o), s, o)
				}
			case 9:
				name = "String"
				if got, want := s.String(), "("+joinIDs(m.ordered())+")"; got != want {
					t.Fatalf("seed %d step %d: String = %s, want %s", seed, step, got, want)
				}
			}
			at := fmt.Sprintf("seed %d step %d %s", seed, step, name)
			agree(t, at, s, m)
			agree(t, at+" (operand)", o, om)
		}
	}
}

func joinIDs(ids []ColID) string {
	out := ""
	for i, c := range ids {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprint(int(c))
	}
	return out
}

// TestColSetCopyIsIndependent pins value semantics: a copy mutated
// through any mutator — below and above the inline boundary — leaves
// the original alone. The map-backed ColSet shared its map between
// copies, so Add through one silently showed in the other.
func TestColSetCopyIsIndependent(t *testing.T) {
	for _, id := range boundaryIDs {
		orig := NewColSet(5, 200)
		for name, mutate := range map[string]func(*ColSet){
			"Add":            func(s *ColSet) { s.Add(id) },
			"Remove":         func(s *ColSet) { s.Remove(5); s.Remove(200) },
			"UnionWith":      func(s *ColSet) { s.UnionWith(NewColSet(id, 300)) },
			"DifferenceWith": func(s *ColSet) { s.DifferenceWith(NewColSet(5, 200)) },
		} {
			for _, cp := range []ColSet{orig, orig.Copy()} {
				mutate(&cp)
				if !orig.Equals(NewColSet(5, 200)) {
					t.Fatalf("%s(%d) through a copy changed the original to %v", name, id, orig)
				}
			}
		}
	}
	// Sets sharing overflow words after a union stay independent too.
	a := NewColSet(1)
	b := NewColSet(400)
	a.UnionWith(b)
	a.Add(401)
	if !b.Equals(NewColSet(400)) {
		t.Fatalf("mutating a union changed its operand to %v", b)
	}
}

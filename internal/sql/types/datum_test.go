package types

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestDatumLayout pins the datum at 32 bytes: kind and presence flag,
// one payload word shared by every non-string kind, a string header.
func TestDatumLayout(t *testing.T) {
	if got := unsafe.Sizeof(Datum{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Datum{}) = %d, want 32. Every stored value and every row "+
			"the executor touches is a slice of datums; at 40 bytes (a float field beside the "+
			"integer one) warm_analytic ran at about 0.75x the ops/s and BenchmarkWarmPass took "+
			"about 1.25x as long (EXPERIMENTS.md, \"A 32-byte datum\")", got)
	}
}

// TestZeroDatumIsNullUnknown: the zero value is the untyped NULL, as
// the type's documentation says, so a datum never set is NULL.
func TestZeroDatumIsNullUnknown(t *testing.T) {
	var d Datum
	if d != NullUnknown || d != Null(Unknown) {
		t.Errorf("Datum{} = %#v, NullUnknown = %#v", d, NullUnknown)
	}
	if !d.IsNull() || d.Kind() != Unknown || d.String() != "NULL" {
		t.Errorf("Datum{}: IsNull %v, Kind %v, String %q", d.IsNull(), d.Kind(), d.String())
	}
	if !Equal(d, Null(Int)) || Compare(d, NewInt(0)) != -1 || d.Hash() != Null(String).Hash() {
		t.Error("Datum{} does not compare and hash as a NULL")
	}
}

func TestDatumConstructorsAndAccessors(t *testing.T) {
	if d := NewInt(42); d.Kind() != Int || d.Int() != 42 || d.IsNull() {
		t.Errorf("NewInt: got %v", d)
	}
	if d := NewFloat(2.5); d.Kind() != Float || d.Float() != 2.5 {
		t.Errorf("NewFloat: got %v", d)
	}
	if d := NewString("xy"); d.Kind() != String || d.Str() != "xy" {
		t.Errorf("NewString: got %v", d)
	}
	if d := NewBool(true); d.Kind() != Bool || !d.Bool() {
		t.Errorf("NewBool: got %v", d)
	}
	if d := Null(Int); !d.IsNull() || d.Kind() != Int {
		t.Errorf("Null: got %v", d)
	}
}

func TestDateRoundTrip(t *testing.T) {
	d, err := DateFromString("1994-01-01")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.String(); got != "1994-01-01" {
		t.Errorf("date round trip: got %s", got)
	}
	if _, err := DateFromString("not-a-date"); err == nil {
		t.Error("expected error for malformed date")
	}
	// Epoch sanity.
	if d := MustDate("1970-01-01"); d.Days() != 0 {
		t.Errorf("epoch: got %d days", d.Days())
	}
	if d := MustDate("1970-01-02"); d.Days() != 1 {
		t.Errorf("epoch+1: got %d days", d.Days())
	}
}

func TestCompareTotalOrder(t *testing.T) {
	cases := []struct {
		a, b Datum
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewInt(2), -1},
		{NewInt(2), NewFloat(1.5), 1},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{Null(Int), NewInt(-100), -1},
		{NewInt(-100), Null(Int), 1},
		{Null(Int), Null(String), 0},
		{NewBool(false), NewBool(true), -1},
		{MustDate("1994-01-01"), MustDate("1995-01-01"), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestCompareIsTotal: Compare is IEEE's order on numbers (-0 equal to
// 0, Int against Float by value), puts a NaN (any payload) after every
// number and level with another NaN, and sorting with it leaves every
// pair of adjacent values in order.
func TestCompareIsTotal(t *testing.T) {
	nan, nan2 := NewFloat(math.NaN()), NewFloat(math.Float64frombits(0xfff8000000000001))
	vals := []Datum{NewFloat(5), NewInt(1), NewFloat(2), NewFloat(3), nan, NewFloat(3), NewInt(2),
		NewFloat(math.Copysign(0, -1)), Null(Float), NewFloat(math.Inf(1)), nan2, NewFloat(math.Inf(-1)), NewFloat(0)}
	isNaN := func(d Datum) bool { return d.Kind() == Float && !d.IsNull() && math.IsNaN(d.Float()) }
	for _, a := range vals {
		for _, b := range vals {
			got := Compare(a, b)
			switch an, bn := isNaN(a), isNaN(b); {
			case an && bn:
				if got != 0 {
					t.Errorf("Compare(%v, %v) = %d, want 0", a, b, got)
				}
			case an || bn:
				if want := map[bool]int{true: 1, false: -1}[an]; got != want {
					t.Errorf("Compare(%v, %v) = %d, want %d", a, b, got, want)
				}
			case a.IsNull() || b.IsNull():
			default:
				af, _ := a.AsFloat()
				bf, _ := b.AsFloat()
				want := map[bool]int{true: -1, false: 1}[af < bf]
				if af == bf {
					want = 0
				}
				if got != want {
					t.Errorf("Compare(%v, %v) = %d, want %d", a, b, got, want)
				}
			}
		}
	}
	sorted := append([]Datum(nil), vals...)
	slices.SortStableFunc(sorted, Compare)
	for i := 1; i < len(sorted); i++ {
		if Compare(sorted[i-1], sorted[i]) > 0 {
			t.Fatalf("sorted with Compare: %v", sorted)
		}
	}
	if !isNaN(sorted[len(sorted)-1]) || !isNaN(sorted[len(sorted)-2]) || !sorted[0].IsNull() {
		t.Fatalf("sorted with Compare: %v; want NULL first and the NaNs last", sorted)
	}
}

func TestCompareSQLNullPropagation(t *testing.T) {
	lt := func(c int) bool { return c < 0 }
	if got := CompareSQL(Null(Int), NewInt(1), lt); got != TriNull {
		t.Errorf("NULL < 1 = %v, want null", got)
	}
	if got := CompareSQL(NewInt(0), NewInt(1), lt); got != TriTrue {
		t.Errorf("0 < 1 = %v, want true", got)
	}
	if got := CompareSQL(NewInt(2), NewInt(1), lt); got != TriFalse {
		t.Errorf("2 < 1 = %v, want false", got)
	}
}

func TestTriBoolTables(t *testing.T) {
	vals := []TriBool{TriTrue, TriFalse, TriNull}
	// Kleene logic truth tables.
	and := map[[2]TriBool]TriBool{
		{TriTrue, TriTrue}: TriTrue, {TriTrue, TriFalse}: TriFalse, {TriTrue, TriNull}: TriNull,
		{TriFalse, TriTrue}: TriFalse, {TriFalse, TriFalse}: TriFalse, {TriFalse, TriNull}: TriFalse,
		{TriNull, TriTrue}: TriNull, {TriNull, TriFalse}: TriFalse, {TriNull, TriNull}: TriNull,
	}
	or := map[[2]TriBool]TriBool{
		{TriTrue, TriTrue}: TriTrue, {TriTrue, TriFalse}: TriTrue, {TriTrue, TriNull}: TriTrue,
		{TriFalse, TriTrue}: TriTrue, {TriFalse, TriFalse}: TriFalse, {TriFalse, TriNull}: TriNull,
		{TriNull, TriTrue}: TriTrue, {TriNull, TriFalse}: TriNull, {TriNull, TriNull}: TriNull,
	}
	for _, a := range vals {
		for _, b := range vals {
			if got := a.And(b); got != and[[2]TriBool{a, b}] {
				t.Errorf("%v AND %v = %v", a, b, got)
			}
			if got := a.Or(b); got != or[[2]TriBool{a, b}] {
				t.Errorf("%v OR %v = %v", a, b, got)
			}
		}
	}
	if TriNull.Not() != TriNull || TriTrue.Not() != TriFalse || TriFalse.Not() != TriTrue {
		t.Error("Not table wrong")
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if !Equal(Null(Int), Null(String)) {
		t.Error("grouping equality: NULL == NULL must hold")
	}
	if Equal(Null(Int), NewInt(0)) {
		t.Error("NULL != 0")
	}
	if !Equal(NewInt(1), NewFloat(1.0)) {
		t.Error("1 == 1.0 for grouping")
	}
}

func TestHashConsistentWithEqual(t *testing.T) {
	pairs := [][2]Datum{
		{NewInt(1), NewFloat(1.0)},
		{Null(Int), Null(Float)},
		{NewString("abc"), NewString("abc")},
		{MustDate("1994-06-01"), MustDate("1994-06-01")},
	}
	for _, p := range pairs {
		if Equal(p[0], p[1]) && p[0].Hash() != p[1].Hash() {
			t.Errorf("equal datums %v, %v hash differently", p[0], p[1])
		}
	}
}

// TestCompareMatchesGoOrdering holds Compare to Go's own orderings on
// random pairs — Int, Date and Bool to cmp.Compare on their int64
// values, non-NaN Float to cmp.Compare (random bit patterns among
// them, each also required to survive NewFloat and Float bit for bit), String to strings.Compare, Int
// against Float where float64 holds the integer exactly (|i| ≤ 2^53),
// NULL before everything — and on the same pairs requires Equal to
// hold exactly when Compare is 0, and equal values to hash equal.
// internal/reference shares this package with the engine by design, so
// a wrong Compare would be invisible to the oracle.
func TestCompareMatchesGoOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(20010521))
	small := func() int64 { return int64(r.Intn(9) - 4) } // equal pairs are common
	anyInt := func() int64 {
		if r.Intn(2) == 0 {
			return small()
		}
		return int64(r.Uint64())
	}
	// Bit patterns a float must keep through NewFloat and Float: NaN
	// payloads (quiet, signalling, negative), ±0, ±Inf, subnormals and
	// ±MaxFloat64, mixed into the random ones.
	specials := []uint64{
		0x7ff8000000000000, 0x7ff8000000000001, 0x7ff0000000000001, 0xfff8000000000000, 0xffffffffffffffff,
		0, 1 << 63, 0x7ff0000000000000, 0xfff0000000000000,
		1, 0x000fffffffffffff, 0x8000000000000001, 0x800fffffffffffff,
		math.Float64bits(math.MaxFloat64), math.Float64bits(-math.MaxFloat64),
	}
	anyBits := func() uint64 {
		if r.Intn(4) == 0 {
			return specials[r.Intn(len(specials))]
		}
		return r.Uint64()
	}
	anyFloat := func() float64 {
		switch r.Intn(5) {
		case 0:
			return float64(small()) / 2
		case 1:
			return math.Inf(int(small()))
		case 2:
			return math.Copysign(0, -1)
		case 3:
			return r.NormFloat64() * 1e6
		}
		for {
			if f := math.Float64frombits(anyBits()); !math.IsNaN(f) {
				return f
			}
		}
	}
	anyString := func() string {
		var b strings.Builder
		for n := r.Intn(4); n > 0; n-- {
			b.WriteRune([]rune("ab\x00é€")[r.Intn(5)])
		}
		return b.String()
	}
	check := func(a, b Datum, want int) {
		t.Helper()
		if got := Compare(a, b); got != want {
			t.Errorf("Compare(%v, %v) = %d, want %d", a, b, got, want)
		}
		if got := Compare(b, a); got != -want {
			t.Errorf("Compare(%v, %v) = %d, want %d", b, a, got, -want)
		}
		if Equal(a, b) != (want == 0) {
			t.Errorf("Equal(%v, %v) = %v with Compare %d", a, b, Equal(a, b), want)
		}
		if want == 0 && a.Hash() != b.Hash() {
			t.Errorf("equal %v and %v hash differently", a, b)
		}
	}
	bit := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	for range 20000 {
		bits := anyBits()
		if got := math.Float64bits(NewFloat(math.Float64frombits(bits)).Float()); got != bits {
			t.Errorf("NewFloat(%#016x).Float() has bits %#016x", bits, got)
		}
		i, j := anyInt(), anyInt()
		check(NewInt(i), NewInt(j), cmp.Compare(i, j))
		check(NewDate(i), NewDate(j), cmp.Compare(i, j))
		p, q := r.Intn(2) == 0, r.Intn(2) == 0
		check(NewBool(p), NewBool(q), cmp.Compare(bit(p), bit(q)))
		f, g := anyFloat(), anyFloat()
		check(NewFloat(f), NewFloat(g), cmp.Compare(f, g))
		s, u := anyString(), anyString()
		check(NewString(s), NewString(u), strings.Compare(s, u))

		exact := small()
		if r.Intn(2) == 0 {
			exact = r.Int63n(1<<53+1) * (1 - 2*r.Int63n(2))
		}
		if r.Intn(3) == 0 {
			g = float64(exact)
		}
		check(NewInt(exact), NewFloat(g), cmp.Compare(float64(exact), g))

		for _, d := range []Datum{NewInt(i), NewDate(j), NewBool(p), NewFloat(f), NewString(s)} {
			check(Null(d.Kind()), d, -1)
			check(Null(Kind(r.Intn(5))), Null(d.Kind()), 0)
		}
	}
}

// randDatum generates a random datum for property tests.
func randDatum(r *rand.Rand) Datum {
	switch r.Intn(6) {
	case 0:
		return Null(Kind(r.Intn(5)))
	case 1:
		return NewInt(int64(r.Intn(20) - 10))
	case 2:
		return NewFloat(float64(r.Intn(20)-10) / 2)
	case 3:
		return NewString(string(rune('a' + r.Intn(5))))
	case 4:
		return NewBool(r.Intn(2) == 0)
	default:
		return NewDate(int64(r.Intn(1000)))
	}
}

// genDatum wraps randDatum for testing/quick.
type genDatum struct{ D Datum }

// Generate implements quick.Generator.
func (genDatum) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(genDatum{randDatum(r)})
}

func comparable2(a, b Datum) bool {
	if a.IsNull() || b.IsNull() {
		return true
	}
	if a.Kind() == b.Kind() {
		return true
	}
	return a.Kind().Numeric() && b.Kind().Numeric()
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(x, y genDatum) bool {
		if !comparable2(x.D, y.D) {
			return true
		}
		return Compare(x.D, y.D) == -Compare(y.D, x.D)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCompareTransitivityProperty(t *testing.T) {
	f := func(x, y, z genDatum) bool {
		if !comparable2(x.D, y.D) || !comparable2(y.D, z.D) || !comparable2(x.D, z.D) {
			return true
		}
		if Compare(x.D, y.D) <= 0 && Compare(y.D, z.D) <= 0 {
			return Compare(x.D, z.D) <= 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHashEqualConsistencyProperty(t *testing.T) {
	f := func(x, y genDatum) bool {
		if !comparable2(x.D, y.D) {
			return true
		}
		if Equal(x.D, y.D) {
			return x.D.Hash() == y.D.Hash()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestDeMorganProperty(t *testing.T) {
	tri := func(n uint8) TriBool { return TriBool(n % 3) }
	f := func(a, b uint8) bool {
		x, y := tri(a), tri(b)
		return x.And(y).Not() == x.Not().Or(y.Not()) &&
			x.Or(y).Not() == x.Not().And(y.Not())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArithBasics(t *testing.T) {
	mustArith := func(op BinOp, a, b Datum) Datum {
		t.Helper()
		d, err := Arith(op, a, b)
		if err != nil {
			t.Fatalf("Arith(%v,%v,%v): %v", op, a, b, err)
		}
		return d
	}
	if d := mustArith(OpAdd, NewInt(2), NewInt(3)); d.Int() != 5 {
		t.Errorf("2+3 = %v", d)
	}
	if d := mustArith(OpMul, NewInt(2), NewFloat(1.5)); d.Float() != 3.0 {
		t.Errorf("2*1.5 = %v", d)
	}
	if d := mustArith(OpDiv, NewFloat(7), NewFloat(2)); d.Float() != 3.5 {
		t.Errorf("7/2 = %v", d)
	}
	if d := mustArith(OpSub, MustDate("1994-01-02"), NewInt(1)); d.String() != "1994-01-01" {
		t.Errorf("date-1 = %v", d)
	}
	if d := mustArith(OpSub, MustDate("1994-01-03"), MustDate("1994-01-01")); d.Int() != 2 {
		t.Errorf("date-date = %v", d)
	}
	if _, err := Arith(OpDiv, NewInt(1), NewInt(0)); err == nil {
		t.Error("expected division by zero error")
	}
	if d := mustArith(OpAdd, Null(Int), NewInt(1)); !d.IsNull() {
		t.Errorf("NULL+1 = %v, want NULL", d)
	}
	if d := mustArith(OpMod, NewInt(7), NewInt(3)); d.Int() != 1 {
		t.Errorf("7%%3 = %v", d)
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"MED BOX", "MED BOX", true},
		{"MED BOX", "MED%", true},
		{"MED BOX", "%BOX", true},
		{"MED BOX", "%ED%", true},
		{"MED BOX", "M_D BOX", true},
		{"MED BOX", "LG%", false},
		{"", "%", true},
		{"", "_", false},
		{"abc", "%%", true},
		{"promo burnished", "promo%", true},
		{"standard", "%promo%", false},
	}
	for _, c := range cases {
		if got := Like(NewString(c.s), NewString(c.p)); got != TriOf(c.want) {
			t.Errorf("Like(%q,%q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
	if Like(Null(String), NewString("%")) != TriNull {
		t.Error("NULL LIKE '%' must be null")
	}
}

func TestRowHelpers(t *testing.T) {
	r := Row{NewInt(1), NewString("a"), Null(Int)}
	c := r.Clone()
	c[0] = NewInt(9)
	if r[0].Int() != 1 {
		t.Error("Clone must not alias")
	}
	a := Row{NewInt(1), NewString("x")}
	b := Row{NewString("x"), NewInt(1)}
	if !EqualRows(a, []int{0, 1}, b, []int{1, 0}) {
		t.Error("EqualRows with ordinal mapping failed")
	}
	if HashRow(a, []int{0, 1}) != HashRow(b, []int{1, 0}) {
		t.Error("HashRow must agree under ordinal mapping")
	}
}

// TestHashPinned pins Hash — a change to it moves every hash-partitioned
// spill and hash-index bucket, so it is made on purpose — and holds each
// typed form to Hash of the datum it stands for (Date and Bool have
// none: they pin Hash alone). Equal datums hash alike: 1 and 1.0, -0
// and 0.
func TestHashPinned(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		d     Datum
		typed uint64
		want  uint64
	}{
		{NullUnknown, HashNull, 0xaf63bd4c8601b7df},
		{NewInt(1), HashInt(1), 0x84418d1ec6572c93},
		{NewFloat(1), HashFloat(1), 0x84418d1ec6572c93},
		{NewFloat(negZero), HashFloat(negZero), 0x9ca066f1a4ab2eea},
		{NewFloat(0), HashFloat(0), 0x9ca066f1a4ab2eea},
		{NewInt(-7), HashInt(-7), 0xeb490bb569989de3},
		{NewFloat(math.NaN()), HashFloat(math.NaN()), 0xfc8de8a4fca62153},
		{NewDate(9131), 0x445d1f2419b7c5d5, 0x445d1f2419b7c5d5},
		{NewBool(true), 0xcb30a855101ade54, 0xcb30a855101ade54},
		{NewBool(false), 0xb800bd6c02472607, 0xb800bd6c02472607},
		{NewString(""), HashString(""), 0xaf63b94c8601b113},
		{NewString("AIR"), HashString("AIR"), 0xee35735f79708b4d},
	}
	for _, c := range cases {
		if got := c.d.Hash(); got != c.want || c.typed != c.want {
			t.Errorf("%v: Hash %#x, typed %#x, want %#x", c.d, got, c.typed, c.want)
		}
	}
}

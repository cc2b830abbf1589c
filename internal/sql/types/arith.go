package types

import (
	"fmt"
	"time"
)

// BinOp enumerates arithmetic operators on datums.
type BinOp uint8

// Arithmetic operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

// String renders the operator symbol.
func (o BinOp) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	default:
		return "?"
	}
}

// Arith evaluates a op b with SQL semantics: NULL operands propagate to
// a NULL result; Int op Int stays Int (except division by zero, which is
// an error); mixed numeric promotes to Float. Date +/- Int yields Date.
func Arith(op BinOp, a, b Datum) (Datum, error) {
	if !a.valid || !b.valid {
		return Null(resultKind(op, a.kind, b.kind)), nil
	}
	// Date arithmetic: date ± int days.
	if a.kind == Date && b.kind == Int && (op == OpAdd || op == OpSub) {
		if op == OpAdd {
			return NewDate(a.i + b.i), nil
		}
		return NewDate(a.i - b.i), nil
	}
	if a.kind == Date && b.kind == Date && op == OpSub {
		return NewInt(a.i - b.i), nil
	}
	if a.kind == Int && b.kind == Int {
		switch op {
		case OpAdd:
			return NewInt(a.i + b.i), nil
		case OpSub:
			return NewInt(a.i - b.i), nil
		case OpMul:
			return NewInt(a.i * b.i), nil
		case OpDiv:
			if b.i == 0 {
				return NullUnknown, fmt.Errorf("division by zero")
			}
			return NewInt(a.i / b.i), nil
		case OpMod:
			if b.i == 0 {
				return NullUnknown, fmt.Errorf("division by zero")
			}
			return NewInt(a.i % b.i), nil
		}
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if !aok || !bok {
		return NullUnknown, fmt.Errorf("invalid operands for %s: %s, %s", op, a.kind, b.kind)
	}
	switch op {
	case OpAdd:
		return NewFloat(af + bf), nil
	case OpSub:
		return NewFloat(af - bf), nil
	case OpMul:
		return NewFloat(af * bf), nil
	case OpDiv:
		if bf == 0 {
			return NullUnknown, fmt.Errorf("division by zero")
		}
		return NewFloat(af / bf), nil
	case OpMod:
		return NullUnknown, fmt.Errorf("modulo requires integers")
	}
	return NullUnknown, fmt.Errorf("unknown operator")
}

func resultKind(op BinOp, a, b Kind) Kind {
	if a == Date || b == Date {
		if a == Date && b == Date && op == OpSub {
			return Int
		}
		return Date
	}
	if a == Float || b == Float {
		return Float
	}
	if a == Int && b == Int {
		return Int
	}
	return Unknown
}

// AddInterval shifts a Date datum by n calendar units ("day",
// "month" or "year"), with month/year arithmetic following Go's
// time.AddDate normalization. It supports the SQL
// "date ± interval 'n' unit" construct.
func AddInterval(d Datum, n int64, unit string) (Datum, error) {
	if d.IsNull() {
		return Null(Date), nil
	}
	if d.Kind() != Date {
		return NullUnknown, fmt.Errorf("interval arithmetic requires a date, got %s", d.Kind())
	}
	t := timeFromDays(d.Days())
	switch unit {
	case "day":
		t = t.AddDate(0, 0, int(n))
	case "month":
		t = t.AddDate(0, int(n), 0)
	case "year":
		t = t.AddDate(int(n), 0, 0)
	default:
		return NullUnknown, fmt.Errorf("unknown interval unit %q", unit)
	}
	return NewDate(t.Unix() / 86400), nil
}

func timeFromDays(days int64) time.Time {
	return time.Unix(days*86400, 0).UTC()
}

// Like implements the SQL LIKE predicate with % and _ wildcards. NULL
// operands yield TriNull.
func Like(s, pattern Datum) TriBool {
	if !s.valid || !pattern.valid {
		return TriNull
	}
	return TriOf(likeMatch(s.s, pattern.s))
}

func likeMatch(s, p string) bool {
	// Classic two-pointer wildcard match over bytes; TPC-H data is ASCII.
	var si, pi int
	star, sBack := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star = pi
			sBack = si
			pi++
		case star != -1:
			pi = star + 1
			sBack++
			si = sBack
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

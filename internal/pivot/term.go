// Package pivot implements ESTOCADA's internal pivot model: relational
// conjunctive queries over a flat schema, together with integrity
// constraints (tuple-generating and equality-generating dependencies).
//
// Every data model supported by the system — relational, JSON documents,
// key-value collections, nested relations, full-text — is encoded into this
// single formalism (see package model), so that cross-model query rewriting
// reduces to view-based rewriting of conjunctive queries under constraints
// (see packages chase and rewrite).
//
// The vocabulary is deliberately small:
//
//   - Term: a variable, a constant, or a labeled null.
//   - Atom: a predicate applied to terms.
//   - CQ: a conjunctive query, head atom plus body atoms.
//   - TGD, EGD: the two constraint classes used by the chase.
//
// All types in this package are immutable by convention: operations return
// new values rather than mutating their receivers, so queries and
// constraints can be shared freely across goroutines.
package pivot

import (
	"fmt"
	"strconv"
)

// TermKind discriminates the three kinds of terms in the pivot model.
type TermKind int

const (
	// KindVar is a query variable (only occurs in queries/constraints).
	KindVar TermKind = iota
	// KindConst is a constant value.
	KindConst
	// KindNull is a labeled null (only occurs in instances, produced by
	// freezing queries or by existential chase steps).
	KindNull
)

func (k TermKind) String() string {
	switch k {
	case KindVar:
		return "var"
	case KindConst:
		return "const"
	case KindNull:
		return "null"
	default:
		return "invalid"
	}
}

// Term is one argument position of an atom. Exactly one of the three
// concrete types Var, Const, Null implements it.
type Term interface {
	// Kind reports which concrete kind of term this is.
	Kind() TermKind
	// Key returns a string that is equal for two terms iff the terms are
	// equal. Keys of different kinds never collide: variables are prefixed
	// "?", nulls "_N", constants "#".
	Key() string
	// String renders the term for human consumption.
	String() string
}

// Var is a query variable, identified by name.
type Var string

// Kind implements Term.
func (Var) Kind() TermKind { return KindVar }

// Key implements Term.
func (v Var) Key() string { return "?" + string(v) }

func (v Var) String() string { return string(v) }

// Null is a labeled null, identified by a numeric label. Labeled nulls stand
// for unknown values in canonical instances; the chase may unify them with
// constants or with each other.
type Null int64

// Kind implements Term.
func (Null) Kind() TermKind { return KindNull }

// Key implements Term.
func (n Null) Key() string { return "_N" + strconv.FormatInt(int64(n), 10) }

func (n Null) String() string { return "_N" + strconv.FormatInt(int64(n), 10) }

// Const is a constant. The wrapped value must be a comparable Go value;
// in practice the system uses string, int64, float64 and bool.
type Const struct {
	V any
}

// Kind implements Term.
func (Const) Kind() TermKind { return KindConst }

// Key implements Term.
func (c Const) Key() string {
	switch v := c.V.(type) {
	case string:
		// Length-prefixed: Atom and CQ keys concatenate term keys, and an
		// unprefixed string could spell a separator and the next key.
		var n [20]byte
		return "#s" + string(strconv.AppendInt(n[:0], int64(len(v)), 10)) + ":" + v
	case int64:
		return "#i" + strconv.FormatInt(v, 10)
	case int:
		return "#i" + strconv.Itoa(v)
	case float64:
		return "#f" + strconv.FormatFloat(v, 'g', -1, 64)
	case bool:
		return "#b" + strconv.FormatBool(v)
	default:
		return fmt.Sprintf("#?%v", v)
	}
}

func (c Const) String() string {
	switch v := c.V.(type) {
	case string:
		return strconv.Quote(v)
	default:
		return fmt.Sprintf("%v", v)
	}
}

// CStr wraps a string constant.
func CStr(s string) Const { return Const{V: s} }

// CInt wraps an integer constant. Integers are normalized to int64 so that
// CInt(3) and a decoded int64(3) compare equal.
func CInt(i int64) Const { return Const{V: i} }

// CFloat wraps a float constant.
func CFloat(f float64) Const { return Const{V: f} }

// CBool wraps a boolean constant.
func CBool(b bool) Const { return Const{V: b} }

// NormalizeConst maps common Go numeric types onto the canonical constant
// representation used by the pivot model (int64 for integers, float64 for
// floats). Values of other types are wrapped unchanged.
func NormalizeConst(v any) Const {
	switch x := v.(type) {
	case int:
		return CInt(int64(x))
	case int32:
		return CInt(int64(x))
	case int64:
		return CInt(x)
	case float32:
		return CFloat(float64(x))
	case float64:
		return CFloat(x)
	case string:
		return CStr(x)
	case bool:
		return CBool(x)
	case Const:
		return NormalizeConst(x.V)
	default:
		return Const{V: v}
	}
}

// SameTerm reports whether two terms are equal.
func SameTerm(a, b Term) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind() != b.Kind() {
		return false
	}
	return a.Key() == b.Key()
}

// IsGround reports whether t contains no variables (i.e. it is a constant
// or a labeled null).
func IsGround(t Term) bool { return t.Kind() != KindVar }

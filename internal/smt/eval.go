package smt

import "fmt"

// Value is a concrete value for a variable: a boolean or a bitvector held
// as a uint64.
type Value struct {
	Bool bool
	BV   uint64
}

// Assignment maps variable names to concrete values.
type Assignment map[string]Value

// Eval evaluates t under the assignment. Unassigned variables default to
// false / zero, which matches the solver's default phase. Eval is the
// executable semantics the bit-blaster is tested against, and is also used
// to replay counterexample models. Callers with more than one term to
// evaluate under one assignment share an Evaluator instead.
func Eval(t *Term, a Assignment) Value { return NewEvaluator(a).Eval(t) }

// Evaluator evaluates terms of one context under one assignment and
// remembers every node it has evaluated, so terms that share structure —
// the fields of a record, the records of a network — cost one walk of
// their common DAG between them. It is not safe for concurrent use.
type Evaluator struct {
	a Assignment
	// By term id, grown to the largest root seen: a term's operands were
	// made before it, so their ids are below its own.
	val  []Value
	done []bool
}

// NewEvaluator returns an evaluator under the assignment.
func NewEvaluator(a Assignment) *Evaluator { return &Evaluator{a: a} }

// Eval evaluates t as the function Eval does.
func (e *Evaluator) Eval(t *Term) Value {
	if n := int(t.id) + 1; n > len(e.val) {
		e.val = append(e.val, make([]Value, n-len(e.val))...)
		e.done = append(e.done, make([]bool, n-len(e.done))...)
	}
	return e.eval(t)
}

func (e *Evaluator) eval(t *Term) Value {
	if e.done[t.id] {
		return e.val[t.id]
	}
	a := e.a
	var v Value
	switch t.op {
	case OpTrue:
		v = Value{Bool: true}
	case OpFalse:
		v = Value{Bool: false}
	case OpBoolVar:
		v = Value{Bool: a[t.name].Bool}
	case OpBVVar:
		v = Value{BV: a[t.name].BV & mask(t.Width())}
	case OpBVConst:
		v = Value{BV: t.val}
	case OpNot:
		v = Value{Bool: !e.eval(t.kids[0]).Bool}
	case OpAnd:
		v = Value{Bool: true}
		for _, k := range t.kids {
			if !e.eval(k).Bool {
				v = Value{Bool: false}
				break
			}
		}
	case OpOr:
		v = Value{Bool: false}
		for _, k := range t.kids {
			if e.eval(k).Bool {
				v = Value{Bool: true}
				break
			}
		}
	case OpIte:
		if e.eval(t.kids[0]).Bool {
			v = e.eval(t.kids[1])
		} else {
			v = e.eval(t.kids[2])
		}
	case OpEq:
		x, y := e.eval(t.kids[0]), e.eval(t.kids[1])
		if t.kids[0].IsBool() {
			v = Value{Bool: x.Bool == y.Bool}
		} else {
			v = Value{Bool: x.BV == y.BV}
		}
	case OpBVAdd:
		x, y := e.eval(t.kids[0]), e.eval(t.kids[1])
		v = Value{BV: (x.BV + y.BV) & mask(t.Width())}
	case OpBVSub:
		x, y := e.eval(t.kids[0]), e.eval(t.kids[1])
		v = Value{BV: (x.BV - y.BV) & mask(t.Width())}
	case OpBVAnd:
		x, y := e.eval(t.kids[0]), e.eval(t.kids[1])
		v = Value{BV: x.BV & y.BV}
	case OpBVUle:
		x, y := e.eval(t.kids[0]), e.eval(t.kids[1])
		v = Value{Bool: x.BV <= y.BV}
	case OpBVUlt:
		x, y := e.eval(t.kids[0]), e.eval(t.kids[1])
		v = Value{Bool: x.BV < y.BV}
	default:
		panic(fmt.Sprintf("smt: eval: unknown op %d", t.op))
	}
	e.val[t.id], e.done[t.id] = v, true
	return v
}

// Package passes holds the two term-level rewrites that run between
// encoding and bit-blasting. The encoder produces a System — a list of
// asserted terms over one hash-consing Context, plus optional goal terms
// — and each pass rewrites the assert list while preserving the set of
// satisfying assignments projected onto the declared variables (unit
// facts are kept as asserts, never erased, so model decoding and
// counterexample replay see every variable constrained).
//
//   - Propagate: the property-agnostic compile step. The assert list is
//     normalised (top-level conjunctions flattened, structurally
//     identical asserts deduplicated, true dropped), then facts of the
//     shapes x, ¬x, x = const and x = y are substituted into every
//     other assert to fixpoint, renormalising after each round. The fact
//     asserts themselves stay.
//   - COI: cone-of-influence pruning relative to the goals, per query.
//     Asserts sharing no variables — transitively — with any goal are
//     dropped. Sound here because every pruned component of the network
//     encoding admits a stable state on its own (the all-silent
//     environment), so a model of the pruned system always extends to
//     the full one.
//
// There is no pass that rebuilds terms through the Context's simplifying
// constructors: every term in a System was built by them, so over a
// hash-consing Context that rebuild returns the terms it was given
// (DESIGN §10 has the measurement). Both passes are idempotent: running
// one twice in a row is a fixpoint (the second run reports before ==
// after).
package passes

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/smt"
)

// System is the unit of compilation: the asserted constraint system and
// (optionally) the goal terms of the query being compiled for. Passes
// rewrite Asserts in place; Goals are read as cone-of-influence roots
// and rewritten only under substitutions that keep them equivalent.
type System struct {
	Ctx     *smt.Context
	Asserts []*smt.Term
	// Goals are the query roots (assumptions and the negated property)
	// for COI; empty for property-agnostic compilation.
	Goals []*smt.Term
	// Origins optionally carries provenance: Origins[i] lists the base
	// origin ids (interned elsewhere, e.g. a provenance.Table) of
	// Asserts[i]. nil disables tracking; when set it stays parallel to
	// Asserts through both passes. Rewrites that merge asserts
	// (deduplication) or make one assert depend on another (substitution)
	// union the origin lists, so blame over-approximates rather than
	// drops contributors.
	Origins [][]int32
}

// mergeBases unions two base-id lists into a fresh sorted, deduplicated
// list. Inputs are not mutated.
func mergeBases(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	n := 0
	for i, v := range out {
		if i > 0 && v == out[n-1] {
			continue
		}
		out[n] = v
		n++
	}
	return out[:n]
}

// Stats reports one pass execution: assert/term/variable counts before
// and after, and the pass's wall time. Terms and Vars count distinct DAG
// nodes reachable from Asserts and Goals.
type Stats struct {
	Pass          string
	AssertsBefore int
	AssertsAfter  int
	TermsBefore   int
	TermsAfter    int
	VarsBefore    int
	VarsAfter     int
	Elapsed       time.Duration
}

// measure runs a pass body between two counts of the system, under a
// child span of sp (nil-safe) that carries them.
func measure(name string, sys *System, sp *obs.Span, body func()) Stats {
	psp := sp.Start("pass:" + name)
	st := Stats{Pass: name, AssertsBefore: len(sys.Asserts)}
	st.TermsBefore, st.VarsBefore = sys.count()
	start := time.Now()
	body()
	st.Elapsed = time.Since(start)
	st.AssertsAfter = len(sys.Asserts)
	st.TermsAfter, st.VarsAfter = sys.count()
	psp.SetInt("asserts_before", int64(st.AssertsBefore))
	psp.SetInt("asserts_after", int64(st.AssertsAfter))
	psp.SetInt("terms_before", int64(st.TermsBefore))
	psp.SetInt("terms_after", int64(st.TermsAfter))
	psp.SetInt("vars_before", int64(st.VarsBefore))
	psp.SetInt("vars_after", int64(st.VarsAfter))
	psp.End()
	return st
}

// count walks the DAG reachable from Asserts and Goals, returning the
// number of distinct term nodes and of distinct variable nodes.
func (sys *System) count() (terms, vars int) {
	seen := make([]bool, sys.Ctx.NumTerms())
	var walk func(t *smt.Term)
	walk = func(t *smt.Term) {
		if seen[t.ID()] {
			return
		}
		seen[t.ID()] = true
		terms++
		if op := t.Op(); op == smt.OpBoolVar || op == smt.OpBVVar {
			vars++
		}
		for _, k := range t.Kids() {
			walk(k)
		}
	}
	for _, a := range sys.Asserts {
		walk(a)
	}
	for _, g := range sys.Goals {
		walk(g)
	}
	return terms, vars
}

// rewriter rebuilds terms through the Context's smart constructors with
// an optional variable substitution, memoized over the DAG.
type rewriter struct {
	c     *smt.Context
	subst map[*smt.Term]*smt.Term // variable node -> replacement
	memo  []*smt.Term             // by term id; nil where nothing was rewritten yet
	used  map[*smt.Term]bool      // substitution keys actually applied, when non-nil
}

func newRewriter(c *smt.Context, subst map[*smt.Term]*smt.Term) *rewriter {
	return &rewriter{c: c, subst: subst, memo: make([]*smt.Term, c.NumTerms())}
}

// resolve follows substitution chains (x -> y -> z) to their end,
// recording every hop in used when tracking is on. Chains always point
// from higher to lower variable id or from variable to constant, so they
// terminate.
func (r *rewriter) resolve(t *smt.Term) *smt.Term {
	for {
		next, ok := r.subst[t]
		if !ok {
			return t
		}
		if r.used != nil {
			r.used[t] = true
		}
		t = next
	}
}

func (r *rewriter) rewrite(t *smt.Term) *smt.Term {
	id := int(t.ID())
	if id < len(r.memo) && r.memo[id] != nil {
		return r.memo[id]
	}
	c := r.c
	var out *smt.Term
	switch t.Op() {
	case smt.OpTrue, smt.OpFalse, smt.OpBVConst:
		out = t
	case smt.OpBoolVar, smt.OpBVVar:
		out = r.resolve(t)
	default:
		var few [4]*smt.Term // all but wide conjunctions and disjunctions
		nk := few[:0]
		for _, k := range t.Kids() {
			nk = append(nk, r.rewrite(k))
		}
		switch t.Op() {
		case smt.OpNot:
			out = c.Not(nk[0])
		case smt.OpAnd:
			out = c.And(nk...)
		case smt.OpOr:
			out = c.Or(nk...)
		case smt.OpIte:
			out = c.Ite(nk[0], nk[1], nk[2])
		case smt.OpEq:
			out = c.Eq(nk[0], nk[1])
		case smt.OpBVAdd:
			out = c.Add(nk[0], nk[1])
		case smt.OpBVSub:
			out = c.Sub(nk[0], nk[1])
		case smt.OpBVAnd:
			out = c.BVAnd(nk[0], nk[1])
		case smt.OpBVUle:
			out = c.Ule(nk[0], nk[1])
		case smt.OpBVUlt:
			out = c.Ult(nk[0], nk[1])
		default:
			panic(fmt.Sprintf("passes: rewrite of unknown op %d", t.Op()))
		}
	}
	if id >= len(r.memo) {
		// t was built by an earlier rewrite of this rewriter.
		r.memo = append(r.memo, make([]*smt.Term, c.NumTerms()-len(r.memo))...)
	}
	r.memo[id] = out
	return out
}

// normalizeAsserts flattens top-level conjunctions into individual
// asserts, dedupes structurally identical ones (pointer equality is
// structural equality under hash-consing) and drops true; a false assert
// collapses the system to a single false. With origins non-nil (parallel
// to asserts) it returns the rewritten origin lists: flattened conjuncts
// inherit the conjunction's origin, and when two asserts dedupe to one
// term the survivor's origin is the union — blame must keep every stanza
// that emitted the constraint, not just the first.
func normalizeAsserts(c *smt.Context, asserts []*smt.Term, origins [][]int32) ([]*smt.Term, [][]int32) {
	out := make([]*smt.Term, 0, len(asserts))
	var outOrigins [][]int32
	if origins != nil {
		outOrigins = make([][]int32, 0, len(asserts))
	}
	seen := make([]int32, c.NumTerms()) // by term id: 1 + index in out, 0 if absent
	var cur []int32                     // origin of the assert being added
	var add func(t *smt.Term) bool      // false when the system became unsat
	add = func(t *smt.Term) bool {
		if t.Op() == smt.OpAnd {
			for _, k := range t.Kids() {
				if !add(k) {
					return false
				}
			}
			return true
		}
		if t == c.True() {
			return true
		}
		if at := seen[t.ID()]; at != 0 {
			if origins != nil {
				outOrigins[at-1] = mergeBases(outOrigins[at-1], cur)
			}
			return true
		}
		if t == c.False() {
			return false
		}
		out = append(out, t)
		seen[t.ID()] = int32(len(out))
		if origins != nil {
			outOrigins = append(outOrigins, cur)
		}
		return true
	}
	for i, a := range asserts {
		if origins != nil {
			cur = origins[i]
		}
		if !add(a) {
			if origins == nil {
				return []*smt.Term{c.False()}, nil
			}
			return []*smt.Term{c.False()}, [][]int32{cur}
		}
	}
	return out, outOrigins
}

// Propagate normalises the assert list, then performs unit and equality
// propagation at the term level. It collects facts from single-assert
// shapes — a bare boolean variable x (x is true), ¬x (x is false),
// x = const, and x = y (variables of equal sort, higher id mapped to
// lower) — substitutes them into every OTHER assert, renormalises, and
// repeats until no new facts appear. The fact asserts themselves are kept
// verbatim so the blasted formula still constrains every variable and
// model decoding stays exact.
func Propagate(sys *System, sp *obs.Span) Stats {
	return measure("propagate", sys, sp, func() {
		c := sys.Ctx
		// Normalising first is what exposes conjoined facts to the first
		// harvest; a false assert leaves no fact and ends the first round.
		sys.Asserts, sys.Origins = normalizeAsserts(c, sys.Asserts, sys.Origins)
		subst := map[*smt.Term]*smt.Term{}
		resolve := func(t *smt.Term) *smt.Term {
			for {
				next, ok := subst[t]
				if !ok {
					return t
				}
				t = next
			}
		}
		isVar := func(t *smt.Term) bool {
			return t.Op() == smt.OpBoolVar || t.Op() == smt.OpBVVar
		}
		// factOrigin maps each substitution key to the origins of the
		// fact asserts that justify it, for provenance tracking.
		var factOrigin map[*smt.Term][]int32
		if sys.Origins != nil {
			factOrigin = map[*smt.Term][]int32{}
		}
		// addFact merges v = val into the substitution, resolving both
		// sides first so chains like {b = a, b = 5} become {b -> a,
		// a -> 5} rather than a spurious contradiction. It returns the
		// key inserted (nil for no-ops) and ok=false only on a genuine
		// conflict (two distinct constants equated).
		addFact := func(v, val *smt.Term) (*smt.Term, bool) {
			v, val = resolve(v), resolve(val)
			if v == val {
				return nil, true
			}
			switch {
			case isVar(v) && isVar(val):
				// Map the higher id onto the lower: chains terminate.
				if v.ID() < val.ID() {
					v, val = val, v
				}
				subst[v] = val
			case isVar(v):
				subst[v] = val
			case isVar(val):
				subst[val] = v
				v = val
			default:
				return nil, false // two distinct constants
			}
			return v, true
		}
		for round := 0; round < 32; round++ {
			// Phase 1: harvest facts; remember which asserts carry them.
			isFact := make([]bool, len(sys.Asserts))
			before := len(subst)
			unsat := false
			fact := func(i int, v, val *smt.Term) {
				isFact[i] = true
				key, ok := addFact(v, val)
				if !ok {
					unsat = true
				}
				if key != nil && factOrigin != nil {
					factOrigin[key] = mergeBases(factOrigin[key], sys.Origins[i])
				}
			}
			for i, a := range sys.Asserts {
				switch {
				case a.Op() == smt.OpBoolVar:
					fact(i, a, c.True())
				case a.Op() == smt.OpNot && a.Kids()[0].Op() == smt.OpBoolVar:
					fact(i, a.Kids()[0], c.False())
				case a.Op() == smt.OpEq:
					l, rr := a.Kids()[0], a.Kids()[1]
					// Eq is canonicalized with the lower id first, so a
					// var=var fact always maps the later variable onto
					// the earlier and substitution chains terminate.
					switch {
					case l.Op() == smt.OpBVVar && rr.Op() == smt.OpBVConst:
						fact(i, l, rr)
					case l.Op() == smt.OpBVConst && rr.Op() == smt.OpBVVar:
						fact(i, rr, l)
					case l.Op() == smt.OpBVVar && rr.Op() == smt.OpBVVar,
						l.Op() == smt.OpBoolVar && rr.Op() == smt.OpBoolVar:
						fact(i, rr, l)
					}
				}
			}
			if unsat {
				// The contradiction follows from the facts alone; blame
				// every fact-carrying assert.
				var fo []int32
				if sys.Origins != nil {
					for i := range sys.Asserts {
						if isFact[i] {
							fo = mergeBases(fo, sys.Origins[i])
						}
					}
					sys.Origins = [][]int32{fo}
				}
				sys.Asserts = []*smt.Term{c.False()}
				return
			}
			grew := len(subst) > before
			if len(subst) == 0 {
				return
			}
			// Phase 2: substitute into every non-fact assert and goal.
			// (Goals carry no origin slot; substituted goals stay sound
			// for blame because the fact asserts themselves are kept
			// verbatim in the system.)
			r := newRewriter(c, subst)
			if sys.Origins != nil {
				r.used = map[*smt.Term]bool{}
			}
			changed := false
			var changedIdx []int
			for i, a := range sys.Asserts {
				if isFact[i] {
					continue
				}
				if nu := r.rewrite(a); nu != a {
					sys.Asserts[i] = nu
					changed = true
					changedIdx = append(changedIdx, i)
				}
			}
			for i, g := range sys.Goals {
				if nu := r.rewrite(g); nu != g {
					sys.Goals[i] = nu
					changed = true
				}
			}
			if sys.Origins != nil && len(changedIdx) > 0 {
				// A rewritten assert is equivalent to its original only
				// given the facts substituted into it; union the used
				// facts' origins in so removing a blamed fact stanza is
				// reflected. The used set is tracked globally per round
				// (rewrites share a memo across asserts), which
				// over-approximates per-assert usage — blame may widen,
				// never drop a contributor.
				var usedOrigins []int32
				for key := range r.used {
					usedOrigins = mergeBases(usedOrigins, factOrigin[key])
				}
				for _, i := range changedIdx {
					sys.Origins[i] = mergeBases(sys.Origins[i], usedOrigins)
				}
			}
			sys.Asserts, sys.Origins = normalizeAsserts(c, sys.Asserts, sys.Origins)
			if len(sys.Asserts) == 1 && sys.Asserts[0] == c.False() {
				return
			}
			if !changed && !grew {
				return
			}
		}
	})
}

// COI prunes asserts outside the goals' cone of influence: the variable
// graph is partitioned by "appears in the same assert", and only asserts
// whose variables connect — transitively — to a goal variable are kept.
// Variable-free asserts are true or false by construction; false is kept,
// true dropped. With no goals, or goals with no variables, the pass keeps
// everything (there is no cone to slice to).
func COI(sys *System, sp *obs.Span) Stats {
	return measure("coi", sys, sp, func() {
		// One walk of the shared DAG: every variable under a term is
		// joined to the term's representative the first time the term is
		// met, so an assert's variables are one class whatever it shares
		// with the asserts before it. A goal's variables are joined too;
		// they all end in the cone either way.
		n := sys.Ctx.NumTerms()
		uf := unionFind{parent: make([]int32, n), size: make([]int32, n)}
		const ground = -1
		rep := make([]int32, n) // by term id: 1 + a variable's id, ground, or 0 before the visit
		var walk func(t *smt.Term) int32
		walk = func(t *smt.Term) int32 {
			id := t.ID()
			if rep[id] != 0 {
				return rep[id]
			}
			r := int32(ground)
			if op := t.Op(); op == smt.OpBoolVar || op == smt.OpBVVar {
				r = id + 1
			}
			for _, k := range t.Kids() {
				switch kr := walk(k); {
				case kr == ground:
				case r == ground:
					r = kr
				default:
					uf.union(r-1, kr-1)
				}
			}
			rep[id] = r
			return r
		}
		goalVars := false
		for _, g := range sys.Goals {
			goalVars = walk(g) != ground || goalVars
		}
		if !goalVars {
			return
		}
		for _, a := range sys.Asserts {
			walk(a)
		}
		inCone := make([]bool, n) // by class root
		for _, g := range sys.Goals {
			if r := rep[g.ID()]; r != ground {
				inCone[uf.find(r-1)] = true
			}
		}
		kept := sys.Asserts[:0]
		var keptO [][]int32
		if sys.Origins != nil {
			keptO = sys.Origins[:0]
		}
		for i, a := range sys.Asserts {
			if r := rep[a.ID()]; r == ground && a == sys.Ctx.True() || r != ground && !inCone[uf.find(r-1)] {
				continue
			}
			kept = append(kept, a)
			if sys.Origins != nil {
				keptO = append(keptO, sys.Origins[i])
			}
		}
		sys.Asserts = kept
		if sys.Origins != nil {
			sys.Origins = keptO
		}
	})
}

// unionFind is a disjoint-set over variable ids with path compression
// and union by size, in two zeroed slices: parent holds 1 + the parent's
// id, 0 at a root; size counts a class's members beyond the first.
type unionFind struct {
	parent, size []int32
}

func (u *unionFind) find(v int32) int32 {
	root := v
	for u.parent[root] != 0 {
		root = u.parent[root] - 1
	}
	for v != root {
		u.parent[v], v = root+1, u.parent[v]-1
	}
	return root
}

func (u *unionFind) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra + 1
	u.size[ra] += u.size[rb] + 1
}

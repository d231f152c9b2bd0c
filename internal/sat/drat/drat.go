// Package drat is a from-scratch RUP/DRAT proof checker for the traces
// recorded by sat.Solver.EnableProof. It shares no solving code with the
// solver: an independent two-watched-literal propagator replays the trace
// chronologically, accepting Input steps unchecked, verifying every
// Derive step by reverse unit propagation (assume the negation of the
// clause, propagate, require a conflict) and removing Delete steps from
// the database. A trace certifies unsatisfiability when the empty clause
// is derived, or when unit propagation alone refutes the accumulated
// database.
//
// A Derive step may carry hints, the ids of the steps whose clauses the
// solver resolved. The checker then propagates over those clauses first
// and only searches the whole database when they do not yield the
// conflict. Hints are never trusted: a hinted clause is looked up in the
// checker's own database, so every conflict still comes from unit
// propagation over clauses the checker accepted itself, and a wrong,
// stale or missing hint costs time, never soundness.
//
// Assumption literals (incremental sessions solve under activation
// literals) are treated as unit clauses present from the start, so the
// checked statement is UNSAT(formula ∧ assumptions).
package drat

import (
	"fmt"

	"repro/internal/sat"
)

// Stats summarizes a successful check.
type Stats struct {
	Inputs    int // input clauses accepted unchecked
	Lemmas    int // derive steps verified by RUP
	Deletions int // delete steps applied
	// Hinted counts the lemmas whose conflict came from their hinted
	// clauses alone, Fallbacks those that needed propagation over the
	// whole database (no hints, or hints that did not conflict). Lemmas
	// the root assignment already entails count as neither.
	Hinted, Fallbacks int
	Propagations      int64 // literals propagated over the watch lists
}

// Check replays the proof chronologically and verifies that it
// establishes unsatisfiability of the recorded formula together with the
// given assumptions. It returns an error describing the first failing
// step, or the step count on success.
func Check(p *sat.Proof, assumptions ...sat.Lit) (*Stats, error) {
	c, err := replayTrace(p, false, assumptions)
	if err != nil {
		return nil, err
	}
	return &c.stats, nil
}

// CheckCore verifies the proof like Check and additionally extracts an
// unsatisfiable core: the indices of the Input steps the refutation
// actually depends on. While replaying, the checker records for every
// verified Derive step which database clauses its reverse-unit-
// propagation conflict touched (the conflicting clause plus the reason
// chain of every falsified literal — for a hinted lemma, the hinted
// clauses that fired plus the root reason chains); the refutation's own
// conflict is recorded the same way. Marking backwards from the
// refutation through those used-sets reaches exactly the steps the proof
// needs; the Input steps among them are the core. Assumption clauses are
// not steps and never appear in the core. Indices are sorted ascending.
func CheckCore(p *sat.Proof, assumptions ...sat.Lit) (*Stats, []int, error) {
	c, err := replayTrace(p, true, assumptions)
	if err != nil {
		return nil, nil, err
	}
	steps := p.Steps()
	marked := make([]bool, len(steps))
	work := c.refUsed
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		if marked[s] {
			continue
		}
		marked[s] = true
		work = append(work, c.used[s]...)
	}
	var core []int
	for s, m := range marked {
		if m && steps[s].Kind == sat.ProofInput {
			core = append(core, s)
		}
	}
	return &c.stats, core, nil
}

// replayTrace drives the checker over the trace. With core set the
// checker keeps the per-Derive used-step sets (checker.used) and the
// refutation's (checker.refUsed).
func replayTrace(p *sat.Proof, core bool, assumptions []sat.Lit) (*checker, error) {
	if p == nil {
		return nil, fmt.Errorf("drat: no proof recorded")
	}
	steps := p.Steps()
	c := newChecker(len(steps), core)
	for _, a := range assumptions {
		c.install([]sat.Lit{a}, -1)
	}
	for i, st := range steps {
		switch st.Kind {
		case sat.ProofInput:
			c.stats.Inputs++
			c.install(st.Lits, int32(i))
		case sat.ProofDerive:
			if !c.rup(st.Lits, p.Hints(i)) {
				return nil, fmt.Errorf("drat: step %d: derived clause %v is not RUP", i, st.Lits)
			}
			c.stats.Lemmas++
			if core {
				c.used[i] = append([]int32(nil), c.chain...)
			}
			c.install(st.Lits, int32(i))
		case sat.ProofDelete:
			if err := c.remove(st.Lits, p.Hints(i), i); err != nil {
				return nil, fmt.Errorf("drat: step %d: %w", i, err)
			}
			c.stats.Deletions++
		default:
			return nil, fmt.Errorf("drat: step %d: unknown kind %d", i, st.Kind)
		}
	}
	if !c.unsat {
		return nil, fmt.Errorf("drat: proof ends without deriving the empty clause")
	}
	return c, nil
}

// value is a three-state assignment: 0 unknown, +1 true, -1 false.
type value int8

// clause is a checker clause: the checker's own deduplicated copy of the
// step's literals. lits[0] and lits[1] are the watched positions while
// attached; step is the proof step that introduced the clause (-1 for
// assumption units, which are not proof steps).
type clause struct {
	lits     []sat.Lit
	step     int32
	attached bool
}

type checker struct {
	assigns []value     // indexed by Var
	reasons []*clause   // indexed by Var: antecedent of the current assignment
	watches [][]*clause // indexed by Lit
	trail   []sat.Lit
	qhead   int
	// clauses[i] is the live clause step i installed, nil for a Delete
	// step, a step not replayed yet and a clause since deleted: where
	// hints and deletions by id are resolved.
	clauses []*clause
	unsat   bool // empty clause derived or database refuted by propagation
	stats   Stats

	// gen stamps the scratch below: an entry is marked when it equals
	// gen, so clearing is one increment.
	gen      int32
	litStamp []int32   // indexed by Lit: the literal set install and remove work on
	pending  []*clause // hinted clauses not yet unit, satisfied or conflicting

	// Core extraction only: used[i] is the steps Derive step i depended
	// on, refUsed the refutation's, chain the set the last rup or refuting
	// install collected, the rest chainFrom's scratch.
	core      bool
	used      [][]int32
	refUsed   []int32
	chain     []int32
	stepStamp []int32 // indexed by step
	varStamp  []int32 // indexed by Var
	varStack  []sat.Var
}

func newChecker(steps int, core bool) *checker {
	c := &checker{clauses: make([]*clause, steps), core: core}
	if core {
		c.used = make([][]int32, steps)
		c.stepStamp = make([]int32, steps)
	}
	return c
}

func (c *checker) ensure(v sat.Var) {
	for int(v) >= len(c.assigns) {
		c.assigns = append(c.assigns, 0)
		c.reasons = append(c.reasons, nil)
		c.watches = append(c.watches, nil, nil)
		c.litStamp = append(c.litStamp, 0, 0)
		c.varStamp = append(c.varStamp, 0)
	}
}

func (c *checker) val(l sat.Lit) value {
	a := c.assigns[l.Var()]
	if l.Neg() {
		return -a
	}
	return a
}

// assign records l as true with the clause that forced it (nil for the
// assumed negations of a RUP check).
func (c *checker) assign(l sat.Lit, reason *clause) {
	if l.Neg() {
		c.assigns[l.Var()] = -1
	} else {
		c.assigns[l.Var()] = 1
	}
	c.reasons[l.Var()] = reason
	c.trail = append(c.trail, l)
}

// chainFrom collects into c.chain the proof steps a conflict on cl
// depends on: cl's own step plus, transitively, the steps of the reason
// clauses that falsified its literals. Assumption clauses (step -1)
// terminate chains without contributing a step.
func (c *checker) chainFrom(cl *clause) {
	c.gen++
	c.chain = c.chain[:0]
	stack := c.varStack[:0]
	for cl != nil {
		if cl.step >= 0 && c.stepStamp[cl.step] != c.gen {
			c.stepStamp[cl.step] = c.gen
			c.chain = append(c.chain, cl.step)
		}
		for _, l := range cl.lits {
			if v := l.Var(); c.varStamp[v] != c.gen {
				c.varStamp[v] = c.gen
				stack = append(stack, v)
			}
		}
		cl = nil
		for cl == nil && len(stack) > 0 {
			cl = c.reasons[stack[len(stack)-1]]
			stack = stack[:len(stack)-1]
		}
	}
	c.varStack = stack
}

// stampLits marks the literal set of lits under a fresh generation,
// making room for its variables. It returns the number of distinct
// literals and whether the set is a tautology (x ∨ ¬x).
func (c *checker) stampLits(lits []sat.Lit) (n int, taut bool) {
	c.gen++
	for _, l := range lits {
		c.ensure(l.Var())
		if c.litStamp[l] == c.gen {
			continue
		}
		if c.litStamp[l.Not()] == c.gen {
			taut = true
		}
		c.litStamp[l] = c.gen
		n++
	}
	return n, taut
}

// install adds a clause to the database and updates the persistent
// assignment: empty or all-false clauses refute the database, unit (or
// effectively-unit) clauses are propagated permanently. Tautologies are
// recorded for deletion matching but never attached.
func (c *checker) install(lits []sat.Lit, step int32) {
	n, taut := c.stampLits(lits)
	own := make([]sat.Lit, 0, n)
	for _, l := range lits {
		if c.litStamp[l] == c.gen {
			c.litStamp[l] = 0 // keep the first occurrence only
			own = append(own, l)
		}
	}
	cl := &clause{lits: own, step: step}
	if step >= 0 {
		c.clauses[step] = cl
	}
	if taut || c.unsat {
		return
	}
	// Move two non-false literals to the watched positions. A clause with
	// a permanently-true literal can never become all-false, so it is
	// left detached.
	nonFalse := 0
	for i, l := range own {
		switch c.val(l) {
		case 1:
			return
		case 0:
			own[nonFalse], own[i] = own[i], own[nonFalse]
			nonFalse++
		}
	}
	switch nonFalse {
	case 0:
		c.unsat = true
		c.refutedBy(cl)
	case 1:
		c.assign(own[0], cl)
		if confl := c.propagateFixed(); confl != nil {
			c.refutedBy(confl)
		}
	default:
		cl.attached = true
		c.watch(own[0], cl)
		c.watch(own[1], cl)
	}
}

// refutedBy records, for core extraction, what the root conflict on cl
// depended on.
func (c *checker) refutedBy(cl *clause) {
	if c.core {
		c.chainFrom(cl)
		c.refUsed = append([]int32(nil), c.chain...)
	}
}

func (c *checker) watch(l sat.Lit, cl *clause) {
	c.watches[l.Not()] = append(c.watches[l.Not()], cl)
}

func (c *checker) unwatch(l sat.Lit, cl *clause) {
	ws := c.watches[l.Not()]
	for i := range ws {
		if ws[i] == cl {
			ws[i] = ws[len(ws)-1]
			c.watches[l.Not()] = ws[:len(ws)-1]
			return
		}
	}
}

// live returns the clause step id currently contributes to the database,
// nil when there is none — whatever the id, so a hint cannot make the
// checker read anything but a clause it holds.
func (c *checker) live(id int32) *clause {
	if id < 0 || int(id) >= len(c.clauses) {
		return nil
	}
	return c.clauses[id]
}

// remove deletes one database occurrence of the clause: the one the
// step's hint names if that clause has these literals, else the newest
// one found by scanning back from step before — linear in the trace, but
// only traces assembled outside the solver come without the id. Dropping
// a clause only weakens the database, so no choice here can make a later
// lemma pass that should not. Units and the empty clause are never
// deleted by the solver, so a trace asking for that — or for a clause
// the database does not hold — is malformed.
func (c *checker) remove(lits []sat.Lit, hints []int32, before int) error {
	n, taut := c.stampLits(lits)
	if !taut && n < 2 {
		return fmt.Errorf("deletion of unit/empty clause %v", lits)
	}
	// Clauses hold distinct literals, so n of them all inside the stamped
	// set are the set.
	matches := func(cl *clause) bool {
		if cl == nil || len(cl.lits) != n {
			return false
		}
		for _, l := range cl.lits {
			if c.litStamp[l] != c.gen {
				return false
			}
		}
		return true
	}
	var cl *clause
	if len(hints) > 0 && matches(c.live(hints[0])) {
		cl = c.clauses[hints[0]]
	}
	for i := before - 1; cl == nil && i >= 0; i-- {
		if matches(c.clauses[i]) {
			cl = c.clauses[i]
		}
	}
	if cl == nil {
		return fmt.Errorf("deletion of clause %v not in database", lits)
	}
	c.clauses[cl.step] = nil
	if cl.attached {
		c.unwatch(cl.lits[0], cl)
		c.unwatch(cl.lits[1], cl)
	}
	return nil
}

// propagateFixed runs propagation and makes the result permanent,
// returning the conflicting clause (and marking the database refuted) if
// one arises.
func (c *checker) propagateFixed() *clause {
	confl := c.propagate()
	c.qhead = len(c.trail)
	if confl != nil {
		c.unsat = true
	}
	return confl
}

// propagate processes the trail from qhead, returning the conflicting
// clause or nil.
func (c *checker) propagate() *clause {
	for c.qhead < len(c.trail) {
		p := c.trail[c.qhead]
		c.qhead++
		c.stats.Propagations++
		ws := c.watches[p]
		j := 0
	nextClause:
		for i := 0; i < len(ws); i++ {
			cl := ws[i]
			np := p.Not()
			if cl.lits[0] == np {
				cl.lits[0], cl.lits[1] = cl.lits[1], np
			}
			if c.val(cl.lits[0]) == 1 {
				ws[j] = cl
				j++
				continue
			}
			for k := 2; k < len(cl.lits); k++ {
				if c.val(cl.lits[k]) != -1 {
					cl.lits[1], cl.lits[k] = cl.lits[k], cl.lits[1]
					c.watch(cl.lits[1], cl)
					continue nextClause
				}
			}
			ws[j] = cl
			j++
			if c.val(cl.lits[0]) == -1 {
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				c.watches[p] = ws[:j]
				return cl
			}
			c.assign(cl.lits[0], cl)
		}
		c.watches[p] = ws[:j]
	}
	return nil
}

// propagateHints unit-propagates over the hinted clauses alone, to a
// fixed point, and returns the clause that became all-false, if any. The
// solver lists antecedents in propagation order, so one pass usually
// does; any other order only costs more passes.
func (c *checker) propagateHints(hints []int32) *clause {
	pend := c.pending[:0]
	for _, h := range hints {
		if cl := c.live(h); cl != nil {
			pend = append(pend, cl)
		}
	}
	c.pending = pend // the passes below only shrink it in place
	for progress := true; progress; {
		progress = false
		waiting := pend[:0]
	nextClause:
		for _, cl := range pend {
			var unit sat.Lit = -1
			for _, l := range cl.lits {
				switch c.val(l) {
				case 1:
					continue nextClause
				case 0:
					if unit >= 0 {
						waiting = append(waiting, cl)
						continue nextClause
					}
					unit = l
				}
			}
			if unit < 0 {
				return cl
			}
			c.assign(unit, cl)
			progress = true
		}
		pend = waiting
	}
	return nil
}

// rup verifies a derived clause by reverse unit propagation: assume every
// literal false, propagate — over the hinted clauses first, over the
// watch lists if those do not conflict — and require a conflict. A clause
// containing a permanently-true literal is already entailed (which covers
// tautologies: the second of x, ¬x finds the first one's negation
// assumed); once the database is refuted everything is entailed. In core
// mode c.chain is left holding the proof steps the verification depended
// on (the conflict's chain, or the entailing literal's reason chain).
func (c *checker) rup(lits []sat.Lit, hints []int32) bool {
	c.chain = c.chain[:0]
	if c.unsat {
		return true
	}
	mark := len(c.trail)
	for _, l := range lits {
		c.ensure(l.Var())
		switch c.val(l) {
		case 1:
			if r := c.reasons[l.Var()]; r != nil && c.core {
				c.chainFrom(r)
			}
			c.backtrack(mark)
			return true
		case 0:
			c.assign(l.Not(), nil)
		}
	}
	confl := c.propagateHints(hints)
	if confl != nil {
		c.stats.Hinted++
	} else {
		c.stats.Fallbacks++
		confl = c.propagate()
	}
	if confl != nil && c.core {
		c.chainFrom(confl)
	}
	c.backtrack(mark)
	return confl != nil
}

// backtrack undoes every assignment past the persistent prefix mark.
func (c *checker) backtrack(mark int) {
	for i := len(c.trail) - 1; i >= mark; i-- {
		c.assigns[c.trail[i].Var()] = 0
		c.reasons[c.trail[i].Var()] = nil
	}
	c.trail = c.trail[:mark]
	c.qhead = mark
}

package sat

import (
	"fmt"
	"math"
)

// Seams for this package's tests, the external ones (package sat_test)
// included: those may import the proof checker and the encoder, which
// import this package.

// The DIMACS-convention helpers of the internal tests.
var (
	Mk         = mk
	AddDimacs  = addDimacs
	Random3SAT = random3SAT
)

// CompactAlways makes every reduceDB and Simplify relocate the whole
// database, whatever the waste.
func (s *Solver) CompactAlways() { s.wasteDiv = math.MaxInt }

// ReduceDB runs a learned-clause reduction now.
func (s *Solver) ReduceDB() { s.reduceDB() }

// CheckInvariants recounts what the solver keeps running totals of and
// checks every ref it holds: meta words exactly while a proof or origins
// are recorded, ClauseDBBytes and the waste against a walk of the two
// clause lists, two watchers per clause on the lists of its first two
// literals with the binary flag exactly on two-literal clauses (and then
// the other literal as blocker), no watcher besides, every trail reason a
// live clause holding its literal.
func (s *Solver) CheckInvariants() error {
	want := 0
	if s.proof != nil || s.origins != nil {
		want = metaWords
	}
	if s.meta != want {
		return fmt.Errorf("%d meta words, want %d", s.meta, want)
	}
	var bytes int64
	words, live := 1, map[cref]bool{}
	for k, list := range [2][]cref{s.clauses, s.learnts} {
		for _, c := range list {
			if c == 0 || int(c) >= len(s.arena) || live[c] {
				return fmt.Errorf("clause ref %d out of range or listed twice", c)
			}
			live[c] = true
			ls := s.lits(c)
			if (s.arena[c]&1 != 0) != (k == 1) {
				return fmt.Errorf("clause %d %v: learnt bit does not match its list", c, ls)
			}
			if len(ls) < 2 {
				return fmt.Errorf("clause %d has %d literals", c, len(ls))
			}
			bytes += clauseBytes(len(ls))
			words += s.pre(c) + 1 + len(ls)
			for i, l := range ls[:2] {
				n := 0
				for _, w := range s.watches[l.Not()] {
					if cref(w.ref&^binaryFlag) != c {
						continue
					}
					n++
					if binary := w.ref&binaryFlag != 0; binary != (len(ls) == 2) {
						return fmt.Errorf("clause %d %v: binary flag %v on the watcher of %v", c, ls, binary, l)
					}
					if len(ls) == 2 && w.blocker != ls[1-i] {
						return fmt.Errorf("binary clause %d %v: watcher of %v has blocker %v", c, ls, l, w.blocker)
					}
				}
				if n != 1 {
					return fmt.Errorf("clause %d %v: %d watchers on the list of %v, want 1", c, ls, n, l)
				}
			}
		}
	}
	if bytes != s.dbBytes {
		return fmt.Errorf("ClauseDBBytes %d, recount %d", s.dbBytes, bytes)
	}
	if words+s.wasted != len(s.arena) {
		return fmt.Errorf("arena %d words: %d live + %d waste", len(s.arena), words, s.wasted)
	}
	watchers := 0
	for _, ws := range s.watches {
		watchers += len(ws)
	}
	if watchers != 2*len(live) {
		return fmt.Errorf("%d watchers for %d clauses", watchers, len(live))
	}
	for v, r := range s.reason {
		if r == 0 {
			continue
		}
		if !live[r] || s.Value(Var(v)) == Unknown {
			return fmt.Errorf("v%d: reason %d is no live clause, or the variable is unassigned", v, r)
		}
		// The implied literal leads a long clause; a binary one keeps no order.
		if ls := s.lits(r); ls[0].Var() != Var(v) && (len(ls) > 2 || ls[1].Var() != Var(v)) {
			return fmt.Errorf("v%d: not the implied literal of its reason %v", v, ls)
		}
	}
	return nil
}

// LearntSizes returns the size of every learned clause held.
func (s *Solver) LearntSizes() []int {
	sizes := make([]int, len(s.learnts))
	for i, c := range s.learnts {
		sizes[i] = len(s.lits(c))
	}
	return sizes
}

// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver. It is the solving substrate for the SMT layer used by the
// Minesweeper encoder: quantifier-free bitvector formulas are bit-blasted
// into CNF and decided here.
//
// The design follows MiniSat: two-watched-literal propagation, 1UIP
// conflict analysis with clause minimization, exponential VSIDS branching,
// phase saving, Luby restarts and activity/LBD-based deletion of learned
// clauses.
package sat

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
)

// Var identifies a boolean variable. Variables are allocated densely
// starting at 0 via Solver.NewVar.
type Var int32

// Lit is a literal: a variable together with a sign. The encoding is the
// MiniSat one: Lit = 2*Var for the positive literal and 2*Var+1 for the
// negation.
type Lit int32

// MkLit builds a literal from a variable and a sign. neg=true yields ¬v.
func MkLit(v Var, neg bool) Lit {
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal as v3 or ~v3.
func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("~v%d", l.Var())
	}
	return fmt.Sprintf("v%d", l.Var())
}

// Tribool is a three-valued boolean used for assignments.
type Tribool int8

// Tribool values.
const (
	Unknown Tribool = iota
	True
	False
)

func (t Tribool) String() string {
	switch t {
	case True:
		return "true"
	case False:
		return "false"
	}
	return "unknown"
}

// Status is the result of a Solve call.
type Status int

// Solve outcomes.
const (
	// Unsolved means the search was aborted (budget exhausted).
	Unsolved Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula is unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unsolved"
}

// ErrBudget is returned by SolveLimited when the conflict budget is
// exhausted before a verdict is reached.
var ErrBudget = errors.New("sat: conflict budget exhausted")

// ErrInterrupted is returned by SolveLimited when Interrupt aborted the
// search before a verdict was reached.
var ErrInterrupted = errors.New("sat: search interrupted")

// ErrClauseDBFull is returned by SolveLimited once a clause, added or
// learned, did not fit the clause database's 2^31-word address space. The
// state is permanent and every later solve is refused: a verdict over a
// database with a clause missing would not be a verdict.
var ErrClauseDBFull = errors.New("sat: clause database full")

// cref names a clause by the index in Solver.arena of its size word,
// len(literals)<<1 | learnt, which its literals follow. 0 is "no clause";
// the top bit is never part of an index, so a watcher can keep a flag
// there.
//
// A clause's header sits behind its size word and holds only what its
// solver reads: metaWords words (origin, step) once the solver records
// origins or a proof (Solver.meta), then learntWords words (LBD,
// activity) on a learned clause. An uncertified problem clause of n
// literals is 1+n words.
type cref uint32

const (
	metaWords   = 2 // origin-set id, proof-step id
	learntWords = 3 // LBD, float64 activity (low word first)
)

// binaryFlag marks, in watcher.ref, a clause of two literals: the blocker
// is then the rest of the clause and propagation never reads the arena.
const binaryFlag = 1 << 31

// watcher pairs a watched clause with a blocker literal that lets
// propagation skip the clause when the blocker is already true. It holds
// no pointer, so the collector never scans a watch list.
type watcher struct {
	ref     uint32 // cref, with binaryFlag
	blocker Lit
}

// LBDBuckets is the number of buckets in Stats.LBDHist.
const LBDBuckets = 12

// Stats counts solver work, for benchmarking and regression tests.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learned      int64
	Deleted      int64
	MaxLevel     int
	// Simplified counts clauses removed by Simplify; Strengthened counts
	// literals Simplify stripped from surviving clauses.
	Simplified   int64
	Strengthened int64
	// LBDHist is the learned-clause LBD distribution: bucket i counts
	// clauses learned with LBD i+1, the last bucket everything larger.
	// Its sum tracks Stats.Learned.
	LBDHist [LBDBuckets]int64
}

// Since returns the work counted after the snapshot before was taken: the
// monotone counters less before's. MaxLevel, a high-water mark, is st's.
// Since(Stats{}) is st.
func (st Stats) Since(before Stats) Stats {
	st.Decisions -= before.Decisions
	st.Propagations -= before.Propagations
	st.Conflicts -= before.Conflicts
	st.Restarts -= before.Restarts
	st.Learned -= before.Learned
	st.Deleted -= before.Deleted
	st.Simplified -= before.Simplified
	st.Strengthened -= before.Strengthened
	for i := range st.LBDHist {
		st.LBDHist[i] -= before.LBDHist[i]
	}
	return st
}

// Plus returns the work of two searches together. MaxLevel, a high-water
// mark, is the larger of the two.
func (st Stats) Plus(o Stats) Stats {
	st.Decisions += o.Decisions
	st.Propagations += o.Propagations
	st.Conflicts += o.Conflicts
	st.Restarts += o.Restarts
	st.Learned += o.Learned
	st.Deleted += o.Deleted
	st.Simplified += o.Simplified
	st.Strengthened += o.Strengthened
	for i := range st.LBDHist {
		st.LBDHist[i] += o.LBDHist[i]
	}
	st.MaxLevel = max(st.MaxLevel, o.MaxLevel)
	return st
}

// Progress is the snapshot handed to a progress hook: a copy of the work
// counters plus the current database size, letting long-running checks
// report liveness.
type Progress struct {
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	Learned      int64
	Deleted      int64
	Vars         int
	Clauses      int
	LearntDB     int // learned clauses currently retained
	// LBDAvg is the running mean LBD of all learned clauses (0 before the
	// first conflict): a falling average means the search is finding
	// shorter explanations, i.e. making progress.
	LBDAvg float64
}

// Since returns the snapshot with its work counters taken from before
// on, like Stats.Since; the database sizes and LBDAvg are p's.
func (p Progress) Since(before Stats) Progress {
	p.Conflicts -= before.Conflicts
	p.Decisions -= before.Decisions
	p.Propagations -= before.Propagations
	p.Restarts -= before.Restarts
	p.Learned -= before.Learned
	p.Deleted -= before.Deleted
	return p
}

// Solver is a CDCL SAT solver. The zero value is not ready for use; call
// New.
type Solver struct {
	// arena holds every clause. alloc, compact and widen replace it: no
	// slice into it may be held across any of them.
	arena   []Lit
	meta    int    // header words for origin and proof step: 0, or metaWords once either is recorded
	wasted  int    // arena words of removed clauses and stripped literals
	dbBytes int64  // ClauseDBBytes, kept as clauses come and go
	clauses []cref // problem clauses
	learnts []cref // learned clauses
	addBuf  []Lit  // AddClause and Simplify: the clause being normalized

	// arenaLimit is the arena length alloc refuses to pass, wasteDiv the
	// share of waste (1/wasteDiv of the arena) at which compact runs.
	// Fixed by New; tests lower the one and raise the other.
	arenaLimit, wasteDiv int
	full                 bool // alloc refused a clause: ErrClauseDBFull

	watches [][]watcher // indexed by Lit
	// slab is where the watch lists of Reserve's variables start: a window
	// of slabWindow entries each, left for the heap when append outgrows it.
	slab []watcher

	assigns  []Tribool // indexed by Lit: a literal and its complement are set together
	level    []int32   // decision level per Var
	reason   []cref    // antecedent clause per Var
	polarity []bool    // saved phase per Var (true = last assigned false)

	activity []float64 // VSIDS activity per Var
	varInc   float64
	varDecay float64

	claInc   float64
	claDecay float64

	order *varHeap // branching order, max-activity first

	trail    []Lit
	trailLim []int // trail index per decision level
	qhead    int

	// conflict analysis scratch
	seen      []bool
	analyzeCl []Lit
	minStack  []Lit
	minClear  []Lit
	toClear   []Lit
	hints     []int32 // proof logging: step ids of the clauses analyze resolved
	lbdStamp  []int64
	lbdGen    int64

	ok bool // false once top-level conflict proven

	// proof, when non-nil, records every clause addition, derivation and
	// deletion as a DRAT-style trace. Enabled via EnableProof.
	proof *Proof

	// origins, when non-nil, attributes solver work to the constraints
	// that caused it. Enabled via EnableOriginTracking.
	origins *originState

	Stats Stats

	// MaxConflicts, when positive, bounds the search effort for
	// SolveLimited.
	MaxConflicts int64

	// ProgressEvery, when positive, makes the solver call OnProgress
	// after every ProgressEvery conflicts. The hook runs synchronously on
	// the solving goroutine; hand the snapshot to a channel (or other
	// synchronization) to consume it elsewhere.
	ProgressEvery int64
	// OnProgress receives periodic search snapshots; nil disables.
	OnProgress func(Progress)

	// interrupted is the asynchronous cancellation flag set by Interrupt
	// and polled by the search loop at conflict and decision points.
	interrupted atomic.Bool
}

// Interrupt asks a running Solve to abort at the next conflict or
// decision. It is the only Solver method safe to call from another
// goroutine; the interrupted search returns Unsolved (ErrInterrupted from
// SolveLimited). The flag is sticky until ResetInterrupt, so an Interrupt
// that lands just after the search returns aborts the next Solve instead
// of being lost — callers that reuse a solver across checks should
// ResetInterrupt once the canceling goroutine has been joined.
func (s *Solver) Interrupt() { s.interrupted.Store(true) }

// ResetInterrupt clears a pending interrupt so the solver can be reused.
// Call it only after the goroutine that might call Interrupt has exited.
func (s *Solver) ResetInterrupt() { s.interrupted.Store(false) }

// Interrupted reports whether an interrupt is pending.
func (s *Solver) Interrupted() bool { return s.interrupted.Load() }

// New returns an empty solver.
func New() *Solver {
	s := &Solver{
		varInc:   1.0,
		varDecay: 0.95,
		claInc:   1.0,
		claDecay: 0.999,
		ok:       true,

		arena:      make([]Lit, 1), // index 0 is "no clause"
		arenaLimit: math.MaxInt32,
		wasteDiv:   4,
	}
	s.order = &varHeap{solver: s}
	return s
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.level) }

// NumClauses returns the number of problem clauses currently held.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// clauseBytes is the accounting size of a clause of n literals: a fixed
// per-clause overhead plus four bytes per literal. The constant models a
// clause header, not the arena's exact layout, so the figure is a
// deterministic function of the database contents, identical across
// machines and across changes of representation.
func clauseBytes(n int) int64 { return 32 + 4*int64(n) }

// ClauseDBBytes returns the accounting footprint of the clause database
// (problem plus learned clauses). Deterministic: equal databases report
// equal bytes regardless of platform, so the figure is safe to gate on.
func (s *Solver) ClauseDBBytes() int64 { return s.dbBytes }

// lits returns c's literals: a view into the arena, dead at the next
// alloc, compact or widen.
func (s *Solver) lits(c cref) []Lit {
	return s.arena[c+1 : c+1+cref(s.arena[c]>>1)]
}

// pre is the number of header words behind c's size word.
func (s *Solver) pre(c cref) int { return s.meta + learntWords*int(s.arena[c]&1) }

// origin is the interned origin-set id of the constraints c came from:
// the creator's set for a problem clause, the union of the antecedents'
// sets for a learned one; 0 for a clause added while tracking was off.
// Read only while the meta words exist.
func (s *Solver) origin(c cref) int32 { return int32(s.arena[int(c)-s.pre(c)]) }

// step is the id of the proof step that put c, in its current form, into
// the trace: what a learned clause resolved from c names as a hint and
// what c's Delete step names as the victim. Read only while proof logging
// is on.
func (s *Solver) step(c cref) int32 { return int32(s.arena[int(c)-s.pre(c)+1]) }

func (s *Solver) setStep(c cref, id int32) { s.arena[int(c)-s.pre(c)+1] = Lit(id) }

// lbd is the LBD a learned clause was learned with.
func (s *Solver) lbd(c cref) int32 { return int32(s.arena[c-3]) }

// claActivity is a learned clause's activity.
func (s *Solver) claActivity(c cref) float64 {
	return math.Float64frombits(uint64(uint32(s.arena[c-2])) | uint64(s.arena[c-1])<<32)
}

func (s *Solver) setClaActivity(c cref, a float64) {
	b := math.Float64bits(a)
	s.arena[c-2], s.arena[c-1] = Lit(uint32(b)), Lit(b>>32)
}

// alloc appends a clause to the arena and its size to the accounts, and
// returns its ref: 0, with the solver marked full, if the arena would
// pass arenaLimit. lits must not be a view into the arena. origin and
// step are stored only while the meta words exist, lbd only on a learned
// clause.
func (s *Solver) alloc(lits []Lit, learnt bool, lbd, origin, step int32) cref {
	at, size := len(s.arena), Lit(len(lits))<<1
	c := at + s.meta
	if learnt {
		c += learntWords
		size |= 1
	}
	end := c + 1 + len(lits)
	if end > s.arenaLimit {
		s.full = true
		return 0
	}
	if end > cap(s.arena) {
		// Grow by half. append would grow a large slice by a quarter, and
		// re-copy a database that is being loaded twice as often; doubling
		// costs peak memory (DESIGN §19 has both measured).
		s.arena = append(make([]Lit, 0, max(end, at+at/2, 1<<10)), s.arena...)
	}
	s.arena = s.arena[:end]
	if s.meta != 0 {
		s.arena[at], s.arena[at+1] = Lit(origin), Lit(step)
	}
	if learnt {
		s.arena[c-3], s.arena[c-2], s.arena[c-1] = Lit(lbd), 0, 0
	}
	s.arena[c] = size
	copy(s.arena[c+1:], lits)
	s.dbBytes += clauseBytes(len(lits))
	return cref(c)
}

// slabWindow is the watch-list room a reserved literal starts with. Of
// the literals the network encodings make, most never watch more.
const slabWindow = 4

// Reserve makes room for vars more variables and clauses more problem
// clauses of lits literals in all, so that adding them regrows nothing:
// the per-variable arrays, the clause list, the arena, and a slab the
// new variables' watch lists start in. It is a hint, not a bound — what
// NewVar and AddClause do is the same after any Reserve or none; too
// little costs the regrowth it was meant to save, too much costs memory.
// The arena's room is for the header words a clause gets now, so switch
// proof logging and origin tracking on first.
func (s *Solver) Reserve(vars, clauses, lits int) {
	vars, clauses, lits = max(vars, 0), max(clauses, 0), max(lits, 0)
	s.assigns = slices.Grow(s.assigns, 2*vars)
	s.level = slices.Grow(s.level, vars)
	s.reason = slices.Grow(s.reason, vars)
	s.polarity = slices.Grow(s.polarity, vars)
	s.activity = slices.Grow(s.activity, vars)
	s.seen = slices.Grow(s.seen, vars)
	s.watches = slices.Grow(s.watches, 2*vars)
	s.order.heap = slices.Grow(s.order.heap, vars)
	s.order.index = slices.Grow(s.order.index, vars)
	s.clauses = slices.Grow(s.clauses, clauses)
	s.arena = slices.Grow(s.arena, min(clauses*(s.meta+1)+lits, s.arenaLimit-len(s.arena)))
	if need := 2 * vars * slabWindow; cap(s.slab)-len(s.slab) < need {
		s.slab = make([]watcher, 0, need)
	}
}

// window takes an empty watch list out of the slab, nil once it is used up.
func (s *Solver) window() []watcher {
	at := len(s.slab)
	if at+slabWindow > cap(s.slab) {
		return nil
	}
	s.slab = s.slab[:at+slabWindow]
	return s.slab[at:at:len(s.slab)]
}

// NewVar allocates a fresh variable.
func (s *Solver) NewVar() Var {
	v := Var(len(s.level))
	s.assigns = append(s.assigns, Unknown, Unknown)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, 0)
	s.polarity = append(s.polarity, true) // default phase: false
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, s.window(), s.window())
	s.order.push(v)
	return v
}

// value returns the current assignment of a literal.
func (s *Solver) value(l Lit) Tribool { return s.assigns[l] }

// Value returns the model value of v after a Sat result. It reflects the
// current assignment; call it only after Solve returns Sat.
func (s *Solver) Value(v Var) Tribool { return s.assigns[MkLit(v, false)] }

// ValueLit returns the model value of a literal after a Sat result.
func (s *Solver) ValueLit(l Lit) Tribool { return s.value(l) }

// decisionLevel is the current depth of the decision stack.
func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds a problem clause. It returns false if the solver is
// already in an UNSAT state or the clause makes it so at the top level.
// Duplicate literals are removed; tautologies are silently satisfied.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	origin := s.clauseOrigin()
	var step int32
	if s.proof != nil {
		step = s.proof.add(ProofInput, lits, origin)
	}
	// A previous Sat result leaves the trail intact so the model stays
	// readable; adding a clause invalidates it, so backtrack first.
	s.cancelUntil(0)
	// Normalize: sort, dedupe, drop false lits, detect tautology/true lits.
	ls := append(s.addBuf[:0], lits...)
	s.addBuf = ls
	if len(ls) <= 8 {
		insertionSort(ls)
	} else {
		slices.Sort(ls)
	}
	out := ls[:0]
	var prev Lit = -1
	dropped := false // a root-falsified literal was stripped
	for _, l := range ls {
		if int(l.Var()) >= s.NumVars() {
			panic(fmt.Sprintf("sat: literal %v references unallocated variable", l))
		}
		if l == prev {
			continue
		}
		if prev >= 0 && l == prev.Not() {
			return true // tautology: x ∨ ¬x
		}
		switch s.value(l) {
		case True:
			return true // already satisfied at top level
		case False:
			dropped = true
			continue // drop falsified literal
		}
		out = append(out, l)
		prev = l
	}
	// The stored clause differs from the input when falsified literals
	// were stripped; the strengthened form is a RUP consequence of the
	// input plus root facts, so record it as a derivation hinted by the
	// input. Later Delete steps then match the clause the database
	// actually holds.
	switch len(out) {
	case 0:
		if s.proof != nil {
			s.proof.add(ProofDerive, nil, origin)
		}
		s.ok = false
		return false
	case 1:
		if s.proof != nil && dropped {
			s.proof.add(ProofDerive, out, origin, step)
		}
		s.uncheckedEnqueue(out[0], 0)
		if s.propagate() != 0 {
			if s.proof != nil {
				s.proof.add(ProofDerive, nil, origin)
			}
			s.ok = false
			return false
		}
		return true
	}
	if s.proof != nil && dropped {
		step = s.proof.add(ProofDerive, out, origin, step)
	}
	// A clause that does not fit is not an inconsistency: report success
	// and let Solve refuse (ErrClauseDBFull).
	if c := s.alloc(out, false, 0, origin, step); c != 0 {
		s.clauses = append(s.clauses, c)
		s.attach(c)
	}
	return true
}

// attach registers the first two literals of c as watched.
func (s *Solver) attach(c cref) {
	ls, ref := s.lits(c), uint32(c)
	if len(ls) == 2 {
		ref |= binaryFlag
	}
	l0, l1 := ls[0], ls[1]
	s.watches[l0.Not()] = append(s.watches[l0.Not()], watcher{ref, l1})
	s.watches[l1.Not()] = append(s.watches[l1.Not()], watcher{ref, l0})
}

// detach removes c from its watch lists.
func (s *Solver) detach(c cref) {
	for _, l := range s.lits(c)[:2] {
		ws := s.watches[l.Not()]
		for i := range ws {
			if cref(ws[i].ref&^binaryFlag) == c {
				ws[i] = ws[len(ws)-1]
				s.watches[l.Not()] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// remove takes c out of the watch lists, the trace and the accounts; the
// caller drops it from its list. Its words are waste until compact.
func (s *Solver) remove(c cref) {
	s.detach(c)
	ls := s.lits(c)
	if s.proof != nil {
		s.proof.addDelete(ls, s.origin(c), s.step(c))
	}
	s.wasted += s.pre(c) + 1 + len(ls)
	s.dbBytes -= clauseBytes(len(ls))
}

// compact relocates the database once a quarter of the arena is waste.
// The new arena keeps the old length: the waste becomes the room the next
// learned clauses go into, with nothing to grow.
func (s *Solver) compact() {
	if s.wasted >= len(s.arena)/s.wasteDiv {
		s.relocate(s.meta, len(s.arena))
	}
}

// widen gives every clause its meta words, when proof logging or origin
// tracking is first switched on: in place on an empty database, by a
// relocation otherwise. Like alloc, it refuses a database that would pass
// arenaLimit: it reports false, with the solver marked full, and nothing
// may be recorded.
func (s *Solver) widen() bool {
	if s.meta != 0 {
		return true
	}
	n := len(s.clauses) + len(s.learnts)
	size := len(s.arena) - s.wasted + metaWords*n
	if size > s.arenaLimit {
		s.full = true
		return false
	}
	if n == 0 {
		s.meta = metaWords
	} else {
		s.relocate(metaWords, size)
	}
	return true
}

// relocate copies the live clauses into a new arena of capacity size, in
// database order, each with meta meta words (zeros ahead of the old
// header where it had fewer), and rewrites every ref there is — the two
// lists, the watchers, the reasons of the trail — through the forwarding
// ref each move leaves in the old size word. A removed clause is in no
// watch list and is no reason (reduceDB skips locked clauses, Simplify
// clears the root's reasons first), so every ref met was moved.
func (s *Solver) relocate(meta, size int) {
	old, oldMeta := s.arena, s.meta
	s.arena, s.meta = make([]Lit, 1, size), meta
	for _, list := range [2][]cref{s.clauses, s.learnts} {
		for i, c := range list {
			n := int(old[c] >> 1)
			s.arena = s.arena[:len(s.arena)+meta-oldMeta] // zeroed by make
			s.arena = append(s.arena, old[int(c)-oldMeta-learntWords*int(old[c]&1):int(c)+1+n]...)
			list[i] = cref(len(s.arena) - 1 - n)
			old[c] = Lit(list[i])
		}
	}
	for _, ws := range s.watches {
		for i, w := range ws {
			ws[i].ref = uint32(old[w.ref&^binaryFlag]) | w.ref&binaryFlag
		}
	}
	for _, l := range s.trail {
		if r := &s.reason[l.Var()]; *r != 0 {
			*r = cref(old[*r])
		}
	}
	s.wasted = 0
}

// uncheckedEnqueue records an assignment implied by reason (0 for
// decisions and top-level facts).
func (s *Solver) uncheckedEnqueue(l Lit, from cref) {
	v := l.Var()
	s.assigns[l], s.assigns[l.Not()] = True, False
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
	if s.origins != nil && from != 0 {
		s.origins.counts[s.origin(from)].Propagations++
	}
}

// propagate performs unit propagation over the watch lists and returns the
// conflicting clause, or 0 if a fixed point is reached. Binary and long
// clauses share one list per literal, in attachment order: the order in
// which implications are found is part of the search.
func (s *Solver) propagate() cref {
	arena, assigns := s.arena, s.assigns // nothing below allocates either
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		np := p.Not()
		ws := s.watches[p]
		j := 0
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if assigns[w.blocker] == True {
				ws[j] = w
				j++
				continue
			}
			c, first := cref(w.ref&^binaryFlag), w.blocker
			if w.ref&binaryFlag != 0 {
				// The blocker is the rest of the clause: unit or conflicting.
				// Only a conflict reads the arena, to leave the clause as
				// the long path would, the literal just falsified second:
				// analyze bumps variables in clause order.
				if assigns[first] == False {
					arena[c+1], arena[c+2] = first, np
				}
			} else {
				lits := arena[c+1 : c+1+cref(arena[c]>>1)]
				// Ensure the false literal (¬p) is lits[1].
				if lits[0] == np {
					lits[0], lits[1] = lits[1], np
				}
				first = lits[0]
				if first != w.blocker && assigns[first] == True {
					ws[j] = watcher{w.ref, first}
					j++
					continue
				}
				// Look for a new literal to watch.
				for k := 2; k < len(lits); k++ {
					if l := lits[k]; assigns[l] != False {
						lits[1], lits[k] = l, np
						nw := l.Not()
						s.watches[nw] = append(s.watches[nw], watcher{w.ref, first})
						continue nextWatcher
					}
				}
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{w.ref, first}
			j++
			if assigns[first] == False {
				// Conflict: copy back remaining watchers and bail.
				s.qhead = len(s.trail)
				j += copy(ws[j:], ws[i+1:])
				s.watches[p] = ws[:j]
				return c
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p] = ws[:j]
	}
	return 0
}

// analyze performs 1UIP conflict analysis. It fills s.analyzeCl with the
// learned clause (asserting literal first) and returns the backtrack level.
func (s *Solver) analyze(confl cref) int {
	s.analyzeCl = s.analyzeCl[:0]
	s.analyzeCl = append(s.analyzeCl, 0) // placeholder for asserting literal
	pathC := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	s.hints = s.hints[:0]

	for {
		s.claBump(confl)
		if s.origins != nil {
			s.origins.noteAntecedent(s.origin(confl))
		}
		if s.proof != nil {
			s.hints = append(s.hints, s.step(confl))
		}
		for _, q := range s.lits(confl) {
			if p >= 0 && q == p {
				continue
			}
			v := q.Var()
			if !s.seen[v] && s.level[v] > 0 {
				s.varBump(v)
				s.seen[v] = true
				if int(s.level[v]) >= s.decisionLevel() {
					pathC++
				} else {
					s.analyzeCl = append(s.analyzeCl, q)
				}
			}
		}
		// Find next literal on the trail to resolve on.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		pathC--
		if pathC <= 0 {
			break
		}
		confl = s.reason[v]
	}
	s.analyzeCl[0] = p.Not()
	if s.origins != nil {
		// The learned clause follows from exactly the clauses resolved
		// above; its origin is the union of their origin sets.
		s.origins.finishAnalyze()
	}

	// Mark remaining for minimization bookkeeping, remembering every
	// marked variable so all bits are cleared afterwards — including
	// literals dropped by minimization.
	s.toClear = append(s.toClear[:0], s.analyzeCl...)
	toClear := s.toClear
	for _, l := range s.analyzeCl[1:] {
		s.seen[l.Var()] = true
	}
	// Clause minimization: drop literals implied by the rest.
	walked := len(s.hints)
	out := s.analyzeCl[:1]
	for _, l := range s.analyzeCl[1:] {
		if s.reason[l.Var()] == 0 || !s.litRedundant(l) {
			out = append(out, l)
		}
	}
	s.analyzeCl = out
	if s.proof != nil {
		// The walk above went from the conflict back along the trail and
		// minimization ran after it; a checker propagates the other way.
		// Put the hints in that order: the minimization reasons first (each
		// probe already innermost first), then the walked reasons in trail
		// order, the conflict clause last.
		slices.Reverse(s.hints)
		slices.Reverse(s.hints[:len(s.hints)-walked])
	}
	for _, l := range toClear {
		s.seen[l.Var()] = false
	}
	for _, l := range s.minClear {
		s.seen[l.Var()] = false
	}
	s.minClear = s.minClear[:0]

	// Backtrack level: second-highest level in the clause.
	if len(s.analyzeCl) == 1 {
		return 0
	}
	maxI := 1
	for i := 2; i < len(s.analyzeCl); i++ {
		if s.level[s.analyzeCl[i].Var()] > s.level[s.analyzeCl[maxI].Var()] {
			maxI = i
		}
	}
	s.analyzeCl[1], s.analyzeCl[maxI] = s.analyzeCl[maxI], s.analyzeCl[1]
	return int(s.level[s.analyzeCl[1].Var()])
}

// litRedundant checks whether l is implied by other marked literals, so it
// can be removed from the learned clause (local minimization).
func (s *Solver) litRedundant(l Lit) bool {
	s.minStack = s.minStack[:0]
	s.minStack = append(s.minStack, l)
	top := len(s.minClear)
	hintTop := len(s.hints)
	for len(s.minStack) > 0 {
		p := s.minStack[len(s.minStack)-1]
		s.minStack = s.minStack[:len(s.minStack)-1]
		c := s.reason[p.Var()]
		if s.proof != nil {
			s.hints = append(s.hints, s.step(c))
		}
		for _, q := range s.lits(c) {
			v := q.Var()
			if q == p.Not() || s.seen[v] || s.level[v] == 0 {
				continue
			}
			if s.reason[v] == 0 {
				// Decision literal not in clause: l is not redundant.
				for _, cl := range s.minClear[top:] {
					s.seen[cl.Var()] = false
				}
				s.minClear = s.minClear[:top]
				s.hints = s.hints[:hintTop]
				return false
			}
			s.seen[v] = true
			s.minClear = append(s.minClear, q)
			s.minStack = append(s.minStack, q)
		}
	}
	// Reasons were visited from l inwards; l's own comes last in a
	// propagation.
	slices.Reverse(s.hints[hintTop:])
	return true
}

// computeLBD returns the number of distinct decision levels in lits.
func (s *Solver) computeLBD(lits []Lit) int32 {
	for len(s.lbdStamp) < len(s.trailLim)+2 {
		s.lbdStamp = append(s.lbdStamp, 0)
	}
	s.lbdGen++
	var n int32
	for _, l := range lits {
		lv := s.level[l.Var()]
		if int(lv) < len(s.lbdStamp) && s.lbdStamp[lv] != s.lbdGen {
			s.lbdStamp[lv] = s.lbdGen
			n++
		}
	}
	return n
}

// cancelUntil backtracks to the given decision level.
func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[lvl]; i-- {
		l := s.trail[i]
		v := l.Var()
		s.polarity[v] = l.Neg()
		s.assigns[l], s.assigns[l.Not()] = Unknown, Unknown
		s.reason[v] = 0
		s.order.pushIfAbsent(v)
	}
	s.trail = s.trail[:s.trailLim[lvl]]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// varBump increases a variable's VSIDS activity.
func (s *Solver) varBump(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) varDecayActivity() { s.varInc /= s.varDecay }

func (s *Solver) claBump(c cref) {
	if s.arena[c]&1 == 0 {
		return // not learnt
	}
	a := s.claActivity(c) + s.claInc
	s.setClaActivity(c, a)
	if a > 1e20 {
		for _, lc := range s.learnts {
			s.setClaActivity(lc, s.claActivity(lc)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) claDecayActivity() { s.claInc /= s.claDecay }

// pickBranchLit chooses the next decision literal, using VSIDS order and
// saved phases. It returns -1 when all variables are assigned.
func (s *Solver) pickBranchLit() Lit {
	for {
		v, ok := s.order.pop()
		if !ok {
			return -1
		}
		if s.Value(v) == Unknown {
			return MkLit(v, s.polarity[v])
		}
	}
}

// reduceDB removes roughly half of the learned clauses, keeping low-LBD and
// high-activity ones. The sort is unstable, and which of two equal clauses
// goes is part of the search: keep this routine and this key.
func (s *Solver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool {
		a, b := s.learnts[i], s.learnts[j]
		if la, lb := s.lbd(a), s.lbd(b); la != lb {
			return la < lb
		}
		return s.claActivity(a) > s.claActivity(b)
	})
	keep := s.learnts[:0]
	limit := len(s.learnts) / 2
	for i, c := range s.learnts {
		if i < limit || s.lbd(c) <= 3 || s.arena[c]>>1 == 2 || s.locked(c) {
			keep = append(keep, c)
			continue
		}
		s.remove(c)
		s.Stats.Deleted++
	}
	s.learnts = keep
	s.compact()
}

// locked reports whether c, not a binary clause (those keep no order), is
// the reason for a current assignment.
func (s *Solver) locked(c cref) bool {
	l := s.arena[c+1]
	return s.value(l) == True && s.reason[l.Var()] == c
}

// lubyUnit is the conflict budget of the first restart interval.
const lubyUnit = 100.0

// luby computes the Luby restart sequence term for index i (1-based), with
// unit u.
func luby(u float64, i int) float64 {
	// Find the finite subsequence containing i, and its position.
	size, seq := 1, 0
	for size < i+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != i {
		size = (size - 1) / 2
		seq--
		i = i % size
	}
	return u * math.Pow(2, float64(seq))
}

// Solve decides the formula under the given assumptions. Assumptions are
// literals that must hold; they are asserted as pseudo-decisions and the
// search proves the formula relative to them.
func (s *Solver) Solve(assumptions ...Lit) Status {
	saved := s.MaxConflicts
	s.MaxConflicts = 0
	st, _ := s.SolveLimited(assumptions...)
	s.MaxConflicts = saved
	return st
}

// SolveLimited is Solve with a conflict budget (s.MaxConflicts when
// positive). On budget exhaustion it returns Unsolved and ErrBudget.
func (s *Solver) SolveLimited(assumptions ...Lit) (Status, error) {
	if !s.ok {
		return Unsat, nil
	}
	s.cancelUntil(0)
	if s.full {
		return Unsolved, ErrClauseDBFull
	}

	var conflictsTotal int64

	for restart := 0; ; restart++ {
		budget := int64(luby(lubyUnit, restart))
		st, conflicts := s.search(budget, assumptions)
		conflictsTotal += conflicts
		if st != Unsolved {
			if st == Sat {
				// Leave the trail intact so Value() can read the model,
				// but the next Solve call will cancel.
				return st, nil
			}
			s.cancelUntil(0)
			return st, nil
		}
		if s.full {
			return Unsolved, ErrClauseDBFull
		}
		if s.interrupted.Load() {
			s.cancelUntil(0)
			return Unsolved, ErrInterrupted
		}
		s.Stats.Restarts++
		// Mirror search's own exhaustion condition on the lifetime conflict
		// count: search returns Unsolved without further work once
		// Stats.Conflicts passes the budget, so checking only the per-call
		// total here would loop forever on a reused solver.
		if s.MaxConflicts > 0 && (conflictsTotal >= s.MaxConflicts || s.Stats.Conflicts >= s.MaxConflicts) {
			s.cancelUntil(0)
			return Unsolved, ErrBudget
		}
	}
}

// search runs CDCL until a verdict, a conflict budget, or a restart.
func (s *Solver) search(budget int64, assumptions []Lit) (Status, int64) {
	var conflicts int64
	learntLimit := int64(len(s.clauses)/3 + 1000)

	for {
		confl := s.propagate()
		if confl != 0 {
			conflicts++
			s.Stats.Conflicts++
			if s.origins != nil {
				s.origins.counts[s.origin(confl)].Conflicts++
			}
			if s.ProgressEvery > 0 && s.OnProgress != nil && s.Stats.Conflicts%s.ProgressEvery == 0 {
				s.OnProgress(s.progress())
			}
			if s.decisionLevel() == 0 {
				if s.proof != nil {
					s.proof.add(ProofDerive, nil, s.origin(confl))
				}
				s.ok = false
				return Unsat, conflicts
			}
			btLevel := s.analyze(confl)
			// Don't backtrack above the assumption levels: if the learned
			// clause forces backtracking into assumptions, re-propagation
			// will handle it; but if analyze proves conflict at assumption
			// level 0 relative to assumptions, the formula is UNSAT under
			// them.
			s.cancelUntil(btLevel)
			learned := s.analyzeCl
			var learnedOrigin int32
			if s.origins != nil {
				learnedOrigin = s.origins.learned
			}
			var step int32
			if s.proof != nil {
				step = s.proof.add(ProofDerive, learned, learnedOrigin, s.hints...)
			}
			if len(learned) == 1 {
				s.uncheckedEnqueue(learned[0], 0)
				if s.origins != nil {
					s.origins.counts[learnedOrigin].Learned++
					s.origins.counts[learnedOrigin].LBDSum++
				}
			} else {
				lbd := s.computeLBD(learned)
				c := s.alloc(learned, true, lbd, learnedOrigin, step)
				if c == 0 {
					s.cancelUntil(0)
					return Unsolved, conflicts
				}
				s.learnts = append(s.learnts, c)
				s.attach(c)
				s.claBump(c)
				s.uncheckedEnqueue(learned[0], c)
				s.Stats.Learned++
				if s.origins != nil {
					s.origins.counts[learnedOrigin].Learned++
					s.origins.counts[learnedOrigin].LBDSum += int64(lbd)
				}
				b := int(lbd) - 1
				if b < 0 {
					b = 0
				} else if b >= LBDBuckets {
					b = LBDBuckets - 1
				}
				s.Stats.LBDHist[b]++
			}
			s.varDecayActivity()
			s.claDecayActivity()
			continue
		}

		if conflicts >= budget || (s.MaxConflicts > 0 && s.Stats.Conflicts >= s.MaxConflicts) ||
			s.interrupted.Load() {
			s.cancelUntil(0)
			return Unsolved, conflicts
		}
		if int64(len(s.learnts)) > learntLimit+int64(len(s.trail)) {
			s.reduceDB()
		}

		// Assert pending assumptions as decisions.
		var next Lit = -1
		for s.decisionLevel() < len(assumptions) {
			p := assumptions[s.decisionLevel()]
			switch s.value(p) {
			case True:
				// Already satisfied; open a dummy level to keep indices
				// aligned with assumption count.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case False:
				// Conflicts with current forced assignments: UNSAT under
				// assumptions.
				s.cancelUntil(0)
				return Unsat, conflicts
			}
			next = p
			break
		}
		if next == -1 {
			next = s.pickBranchLit()
			if next == -1 {
				return Sat, conflicts // all variables assigned
			}
			s.Stats.Decisions++
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		if dl := s.decisionLevel(); dl > s.Stats.MaxLevel {
			s.Stats.MaxLevel = dl
		}
		s.uncheckedEnqueue(next, 0)
	}
}

// Model returns a copy of the current assignment as a []bool indexed by
// variable. Valid only after Solve returned Sat.
func (s *Solver) Model() []bool {
	m := make([]bool, s.NumVars())
	for v := range m {
		m[v] = s.Value(Var(v)) == True
	}
	return m
}

// Okay reports whether the solver is still consistent at the top level
// (no unconditional conflict has been derived).
func (s *Solver) Okay() bool { return s.ok }

// Clauses returns a copy of the problem clauses, for CNF export. Every
// literal implied at the top level (added units and their consequences)
// is exported as a unit clause, so the result stays equisatisfiable with
// the loaded formula even after Simplify removed satisfied clauses.
func (s *Solver) Clauses() [][]Lit {
	var out [][]Lit
	for _, l := range s.trail {
		if s.level[l.Var()] == 0 {
			out = append(out, []Lit{l})
		}
	}
	for _, c := range s.clauses {
		out = append(out, append([]Lit(nil), s.lits(c)...))
	}
	return out
}

// progress snapshots the search counters for the progress hook.
func (s *Solver) progress() Progress {
	p := Progress{
		Conflicts:    s.Stats.Conflicts,
		Decisions:    s.Stats.Decisions,
		Propagations: s.Stats.Propagations,
		Restarts:     s.Stats.Restarts,
		Learned:      s.Stats.Learned,
		Deleted:      s.Stats.Deleted,
		Vars:         s.NumVars(),
		Clauses:      s.NumClauses(),
		LearntDB:     len(s.learnts),
	}
	// Bucket i of LBDHist counts clauses learned with LBD i+1 (the last
	// bucket absorbs larger values, slightly underestimating their mass).
	var sum, n int64
	for i, c := range s.Stats.LBDHist {
		sum += int64(i+1) * c
		n += c
	}
	if n > 0 {
		p.LBDAvg = float64(sum) / float64(n)
	}
	return p
}

// Simplify performs top-level simplification: it backtracks to level 0,
// propagates all root facts, removes clauses already satisfied there and
// strips falsified literals from the remainder. It returns false when
// the formula is proven unsatisfiable. The removed/strengthened work is
// counted in Stats for the observability layer.
func (s *Solver) Simplify() bool {
	if !s.ok {
		return false
	}
	s.cancelUntil(0)
	if confl := s.propagate(); confl != 0 {
		if s.proof != nil {
			s.proof.add(ProofDerive, nil, s.origin(confl))
		}
		s.ok = false
		return false
	}
	// Root assignments are permanent facts: their antecedents are never
	// inspected again, so drop the refs and let the clauses be removed.
	for _, l := range s.trail {
		s.reason[l.Var()] = 0
	}
	s.clauses = s.simplifyList(s.clauses)
	s.learnts = s.simplifyList(s.learnts)
	s.compact()
	return s.ok
}

// simplifyList rewrites one clause database under the root assignment.
// Surviving clauses keep their two watched literals (a false watch would
// have propagated, satisfying the clause or conflicting), so the watch
// lists stay valid without reattachment.
//
// With proof logging on, every rewrite is mirrored in the trace so no
// clause silently vanishes: a satisfied clause gets a Delete step, and a
// strengthened clause gets a Derive of its new form (RUP: the stripped
// literals are root-falsified; hinted by the clause it replaces) followed
// by a Delete of the old one — recorded before the in-place mutation, so
// a later deletion of the strengthened clause matches what the trace says
// the database holds.
//
// A clause strengthened to two literals is binary from here on: both its
// watchers take the flag, and the other literal as blocker (the old
// blocker may be one of the literals just stripped).
func (s *Solver) simplifyList(cs []cref) []cref {
	out := cs[:0]
	for _, c := range cs {
		ls := s.lits(c)
		kept := s.addBuf[:0]
		satisfied := false
	scan:
		for _, l := range ls {
			switch s.value(l) {
			case True:
				satisfied = true
				break scan
			case Unknown:
				kept = append(kept, l)
			}
		}
		s.addBuf = kept
		if satisfied {
			s.remove(c)
			s.Stats.Simplified++
			continue
		}
		out = append(out, c)
		stripped := len(ls) - len(kept)
		if stripped == 0 {
			continue
		}
		if s.proof != nil {
			origin, old := s.origin(c), s.step(c)
			s.setStep(c, s.proof.add(ProofDerive, kept, origin, old))
			s.proof.addDelete(ls, origin, old)
		}
		copy(ls, kept)
		s.arena[c] -= Lit(stripped) << 1
		s.Stats.Strengthened += int64(stripped)
		s.wasted += stripped
		s.dbBytes -= 4 * int64(stripped)
		if len(kept) == 2 {
			for k, l := range kept {
				ws := s.watches[l.Not()]
				for i := range ws {
					if ws[i].ref == uint32(c) {
						ws[i] = watcher{uint32(c) | binaryFlag, kept[1-k]}
						break
					}
				}
			}
		}
	}
	return out
}

// varHeap is a max-heap on variable activity used for VSIDS branching.
type varHeap struct {
	solver *Solver
	heap   []Var
	index  []int32 // position in heap per var, -1 if absent
}

func (h *varHeap) less(a, b Var) bool {
	return h.solver.activity[a] > h.solver.activity[b]
}

func (h *varHeap) ensure(v Var) {
	for int(v) >= len(h.index) {
		h.index = append(h.index, -1)
	}
}

func (h *varHeap) push(v Var) {
	h.ensure(v)
	if h.index[v] >= 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.index[v] = int32(len(h.heap) - 1)
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pushIfAbsent(v Var) { h.push(v) }

func (h *varHeap) pop() (Var, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	v := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.index[h.heap[0]] = 0
	h.heap = h.heap[:last]
	h.index[v] = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return v, true
}

func (h *varHeap) update(v Var) {
	h.ensure(v)
	if i := h.index[v]; i >= 0 {
		h.up(int(i))
	}
}

func (h *varHeap) up(i int) {
	v := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(v, h.heap[p]) {
			break
		}
		h.heap[i] = h.heap[p]
		h.index[h.heap[i]] = int32(i)
		i = p
	}
	h.heap[i] = v
	h.index[v] = int32(i)
}

func (h *varHeap) down(i int) {
	v := h.heap[i]
	n := len(h.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.less(h.heap[c+1], h.heap[c]) {
			c++
		}
		if !h.less(h.heap[c], v) {
			break
		}
		h.heap[i] = h.heap[c]
		h.index[h.heap[i]] = int32(i)
		i = c
	}
	h.heap[i] = v
	h.index[v] = int32(i)
}

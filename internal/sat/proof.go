package sat

import (
	"bufio"
	"io"
	"strconv"
)

// ProofKind classifies one step of a recorded proof trace.
type ProofKind uint8

// Proof step kinds. Input steps record clauses handed to AddClause (and
// the database snapshot taken when recording was enabled); Derive steps
// record clauses the solver claims follow from everything before them
// (learned clauses, normalized inputs, the empty clause); Delete steps
// record clauses removed from the database by Simplify or reduceDB.
const (
	ProofInput ProofKind = iota
	ProofDerive
	ProofDelete
)

func (k ProofKind) String() string {
	switch k {
	case ProofInput:
		return "input"
	case ProofDerive:
		return "derive"
	case ProofDelete:
		return "delete"
	}
	return "?"
}

// ProofStep is one chronological entry of a proof trace. A Derive step
// with no literals is the empty clause: deriving it certifies
// unsatisfiability of everything added before it. Origin is the interned
// origin-set id of the clause (see Solver.SetOrigin); 0 when origin
// tracking is off.
type ProofStep struct {
	Kind ProofKind
	// nHints and hintAt locate the step's hints on the Proof that holds
	// the step (Proof.Hints); they sit where the struct had padding, so
	// hints do not grow the step.
	nHints int32
	Lits   []Lit
	Origin int32
	hintAt uint32
}

// Proof is a chronological DRAT-style trace of one solver's clause
// database: every clause added, every clause the solver derived and every
// clause it deleted, in order. Incremental use (clauses added between
// Solve calls) interleaves Input steps after Derive steps; a checker must
// process the trace in order. The trace certifies verdicts relative to
// the database as of EnableProof.
//
// Steps may carry hints: the step ids (indices into Steps) of the clauses
// the solver resolved to obtain a Derive step, in an order in which they
// unit-propagate to the conflict, or the id of the step whose clause a
// Delete step removes. Hints only tell a checker where to look first; a
// trace without them certifies exactly the same thing.
type Proof struct {
	steps []ProofStep
	lits  int
	// hints is the arena every step's hints live in, cut into chunks of
	// fixed capacity: a long search records tens of megabytes of them,
	// and one growing slice would copy all of that again each time it
	// grew. A step's hints are contiguous in one chunk, at
	// ProofStep.hintAt (chunk index above hintChunkBits, offset below).
	hints  [][]int32
	nHints int
}

// hintChunkBits sizes a hint chunk: 64Ki hints, 256 KiB. A longer hint
// list gets a chunk of its own.
const hintChunkBits = 16

// Steps returns the recorded steps. The slice and its literal slices are
// owned by the proof; callers must not mutate them.
func (p *Proof) Steps() []ProofStep { return p.steps }

// NumSteps returns the number of recorded steps.
func (p *Proof) NumSteps() int { return len(p.steps) }

// NumLits returns the total literal count across all steps, a proxy for
// the proof's size in memory and on disk.
func (p *Proof) NumLits() int { return p.lits }

// Hints returns step i's hints (see Proof). The slice is owned by the
// proof; callers must not mutate it.
func (p *Proof) Hints(i int) []int32 {
	st := &p.steps[i]
	if st.nHints == 0 {
		return nil
	}
	off := st.hintAt & (1<<hintChunkBits - 1)
	return p.hints[st.hintAt>>hintChunkBits][off : off+uint32(st.nHints)]
}

// NumHints returns the total hint count across all steps.
func (p *Proof) NumHints() int { return p.nHints }

// putHints copies h into the arena and returns where it went.
func (p *Proof) putHints(h []int32) (at uint32, n int32) {
	if len(h) == 0 {
		return 0, 0
	}
	k := len(p.hints) - 1
	if k < 0 || cap(p.hints[k])-len(p.hints[k]) < len(h) {
		if k+1 == 1<<(32-hintChunkBits) {
			// Out of addresses (16 GiB of hints): the step goes unhinted,
			// which costs a checker time and nothing else.
			return 0, 0
		}
		p.hints = append(p.hints, make([]int32, 0, max(len(h), 1<<hintChunkBits)))
		k++
	}
	at = uint32(k)<<hintChunkBits | uint32(len(p.hints[k]))
	p.hints[k] = append(p.hints[k], h...)
	p.nHints += len(h)
	return at, int32(len(h))
}

// Bytes returns the accounting footprint of the trace: a fixed per-step
// overhead plus four bytes per literal and per hint. Like
// Solver.ClauseDBBytes this is a deterministic function of the trace
// contents (not Go's exact memory layout), so cost ledgers and regression
// gates can compare it across machines. Nil-safe.
func (p *Proof) Bytes() int64 {
	if p == nil {
		return 0
	}
	return 16*int64(len(p.steps)) + 4*int64(p.lits) + 4*int64(p.nHints)
}

// Counts returns the number of input, derive and delete steps.
func (p *Proof) Counts() (inputs, derives, deletes int) {
	for _, st := range p.steps {
		switch st.Kind {
		case ProofInput:
			inputs++
		case ProofDerive:
			derives++
		case ProofDelete:
			deletes++
		}
	}
	return
}

// add records a step with a copy of its literals and hints and returns
// its id.
func (p *Proof) add(k ProofKind, lits []Lit, origin int32, hints ...int32) int32 {
	p.AppendShared(ProofStep{Kind: k, Lits: append([]Lit(nil), lits...), Origin: origin}, hints...)
	return int32(len(p.steps) - 1)
}

// NewProof returns an empty proof for external assembly through
// AppendShared (the checker's tests build traces by hand).
func NewProof() *Proof { return &Proof{} }

// AppendShared appends a step sharing its literal slice with the caller
// (no copy); the hints, which must name step ids of this proof, are
// copied. The caller must not mutate the literal slice afterwards; steps
// coming out of Proof.Steps already satisfy this.
func (p *Proof) AppendShared(st ProofStep, hints ...int32) {
	st.hintAt, st.nHints = p.putHints(hints)
	p.steps = append(p.steps, st)
	p.lits += len(st.Lits)
}

// addDelete records the deletion of the clause, now lits, that step
// victim put into the trace. The victim's literals are the same set and
// as immutable as any step's, so the Delete step shares them; only an
// input recorded with duplicate literals, which the database dropped,
// needs its own copy.
func (p *Proof) addDelete(lits []Lit, origin, victim int32) {
	if shared := p.steps[victim].Lits; len(shared) == len(lits) {
		p.AppendShared(ProofStep{Kind: ProofDelete, Lits: shared, Origin: origin}, victim)
		return
	}
	p.add(ProofDelete, lits, origin, victim)
}

// RebuildProof assembles a Proof from explicit steps, for replaying
// traces that were stored or transformed outside the solver (tests,
// corpus minimization). Literal slices are copied; the result carries no
// hints.
func RebuildProof(steps []ProofStep) *Proof {
	p := &Proof{}
	for _, st := range steps {
		p.add(st.Kind, st.Lits, st.Origin)
	}
	return p
}

// WriteDRAT writes the derive and delete steps in the textual DRAT format
// consumed by external checkers such as drat-trim (variable v becomes
// DIMACS index v+1). Input steps are skipped: DRAT checkers take the
// original formula separately, e.g. a DIMACS dump of Solver.Clauses.
func (p *Proof) WriteDRAT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, st := range p.steps {
		if st.Kind == ProofInput {
			continue
		}
		if st.Kind == ProofDelete {
			if _, err := bw.WriteString("d "); err != nil {
				return err
			}
		}
		for _, l := range st.Lits {
			n := int(l.Var()) + 1
			if l.Neg() {
				n = -n
			}
			if _, err := bw.WriteString(strconv.Itoa(n)); err != nil {
				return err
			}
			if err := bw.WriteByte(' '); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString("0\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// EnableProof turns on proof logging and returns the trace, which grows
// as the solver works. Enabling is idempotent. The current database
// (root-level facts, problem clauses and any learned clauses) is
// snapshotted as Input steps, so the proof certifies verdicts relative
// to the formula as of this call; enable before solving to certify
// relative to the original input, and before adding clauses to spare
// the database a relocation. A solver whose database cannot take the
// proof-step words is full (ErrClauseDBFull): it records nothing, and
// the trace returned stays empty.
func (s *Solver) EnableProof() *Proof {
	if s.proof != nil {
		return s.proof
	}
	if !s.widen() {
		return &Proof{}
	}
	s.proof = &Proof{}
	for _, l := range s.trail {
		if s.level[l.Var()] == 0 {
			s.proof.add(ProofInput, []Lit{l}, 0)
		}
	}
	for _, list := range [2][]cref{s.clauses, s.learnts} {
		for _, c := range list {
			s.setStep(c, s.proof.add(ProofInput, s.lits(c), s.origin(c)))
		}
	}
	return s.proof
}

// Proof returns the trace being recorded, or nil when proof logging is
// off.
func (s *Solver) Proof() *Proof { return s.proof }

package sat

import (
	"testing"
	"unsafe"
)

// TestClauseDBBytes pins the accounting formula: 32 bytes per clause
// plus 4 per literal, over problem and learned clauses alike.
func TestClauseDBBytes(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	if s.ClauseDBBytes() != 0 {
		t.Fatalf("empty db bytes = %d", s.ClauseDBBytes())
	}
	s.AddClause(MkLit(a, false), MkLit(b, false))                 // binary: 32 + 8
	s.AddClause(MkLit(a, false), MkLit(b, true), MkLit(c, false)) // ternary: 32 + 12
	if got, want := s.ClauseDBBytes(), int64(32+8+32+12); got != want {
		t.Fatalf("db bytes = %d, want %d", got, want)
	}
	// Unit clauses are enqueued, not stored; bytes must not change.
	before := s.ClauseDBBytes()
	s.AddClause(MkLit(c, false))
	if s.ClauseDBBytes() != before {
		t.Fatalf("unit clause changed db bytes: %d -> %d", before, s.ClauseDBBytes())
	}
}

// TestClauseDBBytesCountsLearnts drives a small UNSAT-ish search and
// checks learned clauses are included while they live in the database.
func TestClauseDBBytesCountsLearnts(t *testing.T) {
	s := New()
	const n = 6
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	// Pigeonhole-flavored pairwise constraints to force some learning.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s.AddClause(MkLit(vars[i], true), MkLit(vars[j], true))
		}
	}
	s.AddClause(MkLit(vars[0], false), MkLit(vars[1], false), MkLit(vars[2], false))
	base := s.ClauseDBBytes()
	if base <= 0 {
		t.Fatal("no db bytes before solve")
	}
	s.Solve()
	st := s.Stats
	if st.Learned > 0 && s.ClauseDBBytes() < base {
		// Learned clauses may be deleted again; just require the call
		// to stay consistent with the formula.
		var want int64
		for _, lits := range s.Clauses() {
			want += 32 + 4*int64(len(lits))
		}
		// Clauses() only reports problem clauses; learnts add on top, so
		// the db can only be >= that.
		if s.ClauseDBBytes() < want {
			t.Fatalf("db bytes %d < problem-clause bytes %d", s.ClauseDBBytes(), want)
		}
	}
}

// TestProofBytes pins the proof accounting formula: 16 bytes per step
// plus 4 per literal and per hint, nil-safe.
func TestProofBytes(t *testing.T) {
	var nilProof *Proof
	if nilProof.Bytes() != 0 {
		t.Fatal("nil proof bytes != 0")
	}
	p := NewProof()
	if p.Bytes() != 0 {
		t.Fatal("empty proof bytes != 0")
	}
	p.AppendShared(ProofStep{Kind: ProofInput, Lits: []Lit{MkLit(0, false), MkLit(1, true)}})
	p.AppendShared(ProofStep{Kind: ProofDerive, Lits: []Lit{MkLit(0, false)}}, 0, 0)
	p.AppendShared(ProofStep{Kind: ProofDelete, Lits: nil}, 1)
	if got, want := p.Bytes(), int64(16*3+4*3+4*3); got != want {
		t.Fatalf("proof bytes = %d, want %d", got, want)
	}
	if got := int64(16*p.NumSteps() + 4*p.NumLits() + 4*p.NumHints()); got != p.Bytes() {
		t.Fatalf("Bytes inconsistent with NumSteps/NumLits/NumHints: %d vs %d", p.Bytes(), got)
	}
}

// TestHintsCostNoStructGrowth pins what recording hints was allowed to
// cost per step: nothing. The step's hint reference sits in what used to
// be padding. (The clause's step id is a header word: TestClauseLayout.)
func TestHintsCostNoStructGrowth(t *testing.T) {
	if got := unsafe.Sizeof(ProofStep{}); got != 40 {
		t.Errorf("ProofStep is %d bytes, want 40", got)
	}
}

// TestHintArena fills the arena past several chunk boundaries, with one
// list longer than a chunk, and reads every step's hints back.
func TestHintArena(t *testing.T) {
	p := New().EnableProof()
	next := int32(0)
	var want [][]int32
	for _, n := range []int{0, 1, 1<<hintChunkBits - 1, 2, 0, 1<<hintChunkBits + 5, 3, 1 << hintChunkBits, 7, 9} {
		h := make([]int32, n)
		for i := range h {
			h[i] = next
			next++
		}
		p.AppendShared(ProofStep{Kind: ProofDerive}, h...)
		want = append(want, h)
	}
	if p.NumSteps() != len(want) {
		t.Fatalf("%d steps, want %d", p.NumSteps(), len(want))
	}
	total := 0
	for i, w := range want {
		got := p.Hints(i)
		if len(got) != len(w) {
			t.Fatalf("step %d: %d hints, want %d", i, len(got), len(w))
		}
		for k := range w {
			if got[k] != w[k] {
				t.Fatalf("step %d: hint %d is %d, want %d", i, k, got[k], w[k])
			}
		}
		total += len(w)
	}
	if p.NumHints() != total {
		t.Fatalf("NumHints %d, want %d", p.NumHints(), total)
	}
}

package sat

// Cloning supports the parallel solve engine: a portfolio race or a cube
// fan-out starts from byte-identical copies of one template solver, so a
// clone configured like the template searches exactly the trajectory the
// template would have. Everything that influences the search is copied
// verbatim — clause databases, watch-list order, trail, VSIDS heap order,
// saved phases, activities, stats, the proof trace and the origin tables —
// which is what the determinism pin in core relies on.

// SeedRandom seeds the solver's deterministic random generator used by
// RandomFreq decisions. Zero is mapped to a fixed non-zero constant, so a
// zero-valued seed still yields a working generator.
func (s *Solver) SeedRandom(seed int64) {
	s.rng = uint64(seed)
	if s.rng == 0 {
		s.rng = 0x9e3779b97f4a7c15
	}
}

// nextRand advances the xorshift64 state and returns it.
func (s *Solver) nextRand() uint64 {
	if s.rng == 0 {
		s.rng = 0x9e3779b97f4a7c15
	}
	x := s.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.rng = x
	return x
}

// randFloat returns a deterministic uniform float in [0,1).
func (s *Solver) randFloat() float64 {
	return float64(s.nextRand()>>11) / float64(1<<53)
}

// Activity returns v's VSIDS activity, the lookahead signal used by
// cube-and-conquer to rank split candidates after a probing run.
func (s *Solver) Activity(v Var) float64 {
	if int(v) >= len(s.activity) {
		return 0
	}
	return s.activity[v]
}

// SetAllSavedPhases overwrites the saved phase of every allocated
// variable: neg=true biases future decisions to false (the allocation
// default), neg=false to true. Portfolio configurations use it to flip
// the polarity of one racer.
func (s *Solver) SetAllSavedPhases(neg bool) {
	for i := range s.polarity {
		s.polarity[i] = neg
	}
}

// JitterActivity adds eps-scaled deterministic noise to every variable's
// VSIDS activity and restores the heap invariant, diversifying the
// branching order of one portfolio racer without erasing what the
// template search already learned.
func (s *Solver) JitterActivity(seed int64, eps float64) {
	s.SeedRandom(seed)
	for v := range s.activity {
		s.activity[v] += eps * s.randFloat()
	}
	s.order.rebuild()
}

// Clone returns a deep copy of the solver sharing no mutable state with
// the receiver. The receiver is backtracked to decision level 0 first
// (exactly what its own next Solve call would do), so clone and template
// observe the same root state. The clone starts with a clear interrupt
// flag and no progress hook; proof and origin tracking carry over with
// the recorded prefix intact, so the clone's trace extends the template's
// byte for byte.
func (s *Solver) Clone() *Solver {
	s.cancelUntil(0)
	n := &Solver{
		varInc:       s.varInc,
		varDecay:     s.varDecay,
		claInc:       s.claInc,
		claDecay:     s.claDecay,
		ok:           s.ok,
		qhead:        s.qhead,
		Stats:        s.Stats,
		MaxConflicts: s.MaxConflicts,
		RestartBase:  s.RestartBase,
		RandomFreq:   s.RandomFreq,
		rng:          s.rng,

		// Refs are arena indices, so they mean in the copy what they mean
		// here: the database is cloned by copying slices.
		arena:      append([]Lit(nil), s.arena...),
		wasted:     s.wasted,
		dbBytes:    s.dbBytes,
		clauses:    append([]cref(nil), s.clauses...),
		learnts:    append([]cref(nil), s.learnts...),
		arenaLimit: s.arenaLimit,
		wasteDiv:   s.wasteDiv,
		full:       s.full,
	}
	n.watches = make([][]watcher, len(s.watches))
	for i, ws := range s.watches {
		n.watches[i] = append([]watcher(nil), ws...)
	}
	n.assigns = append([]Tribool(nil), s.assigns...)
	n.level = append([]int32(nil), s.level...)
	n.polarity = append([]bool(nil), s.polarity...)
	n.activity = append([]float64(nil), s.activity...)
	n.reason = append([]cref(nil), s.reason...)
	n.trail = append([]Lit(nil), s.trail...)
	n.trailLim = append([]int(nil), s.trailLim...)
	n.seen = make([]bool, len(s.seen))
	n.order = &varHeap{
		solver: n,
		heap:   append([]Var(nil), s.order.heap...),
		index:  append([]int32(nil), s.order.index...),
	}
	if s.proof != nil {
		// Steps are append-only and their literal slices immutable, so the
		// shallow step copy is safe: template and clone extend distinct
		// backing arrays from here on. Full hint chunks are immutable too;
		// only the one still being filled needs a copy, with the template's
		// capacity so both lay out what follows identically.
		n.proof = &Proof{
			steps:  append([]ProofStep(nil), s.proof.steps...),
			lits:   s.proof.lits,
			hints:  append([][]int32(nil), s.proof.hints...),
			nHints: s.proof.nHints,
		}
		if k := len(n.proof.hints) - 1; k >= 0 {
			open := n.proof.hints[k]
			n.proof.hints[k] = append(make([]int32, 0, cap(open)), open...)
		}
	}
	if s.origins != nil {
		n.origins = s.origins.clone()
	}
	return n
}

// rebuild restores the heap invariant after a bulk activity rewrite.
func (h *varHeap) rebuild() {
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

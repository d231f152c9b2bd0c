package sat

// Origin tracking attributes solver work to the constraints that caused
// it. The solver itself knows nothing about routers or config stanzas:
// callers intern their provenance elsewhere into small "base ids"
// (int32) and hand the solver sets of them. The solver in turn interns
// each distinct set once, stamps the set id onto every clause added
// while it is current, unions antecedent sets onto learned clauses, and
// keeps per-set work counters that the caller expands back into
// per-origin rows. Set id 0 is the empty set ("no origin"); with
// tracking disabled a clause's origin word is 0, or absent when no proof
// is recorded either, and the hot paths pay one predictable branch.

// OriginCounts is the work attributed to one origin set.
type OriginCounts struct {
	// Conflicts counts conflicts whose conflicting clause carried the set.
	Conflicts int64
	// Propagations counts unit propagations whose reason clause carried
	// the set.
	Propagations int64
	// Learned counts clauses learned with this set (the union of the
	// conflict's antecedent sets); LBDSum accumulates their LBD.
	Learned int64
	LBDSum  int64
}

// originState holds the tracking tables, split out so a solver without
// tracking carries one nil pointer.
type originState struct {
	cur     int32            // set id stamped onto clauses being added
	sets    [][]int32        // set id -> sorted base ids; sets[0] = empty
	keys    map[string]int32 // canonical key -> set id
	counts  []OriginCounts   // indexed by set id
	unions  map[uint64]int32 // memoized pairwise unions
	scratch []int32          // analyze: distinct antecedent set ids
	learned int32            // origin of the clause analyze just built
}

// EnableOriginTracking turns on per-origin attribution. Enable before
// adding clauses so every clause carries its creator's origin (and the
// database needs no relocation); idempotent. A solver whose database
// cannot take the origin words is full (ErrClauseDBFull) and tracks
// nothing.
func (s *Solver) EnableOriginTracking() {
	if s.origins != nil || !s.widen() {
		return
	}
	s.origins = &originState{
		sets:   [][]int32{nil},
		keys:   map[string]int32{"": 0},
		counts: make([]OriginCounts, 1),
		unions: map[uint64]int32{},
	}
}

// SetOrigin declares the base origins of the clauses added next. With
// tracking off it is a no-op; an empty call resets to "no origin".
func (s *Solver) SetOrigin(bases ...int32) {
	if s.origins == nil {
		return
	}
	s.origins.cur = s.origins.intern(bases)
}

// OriginSetBases returns the base origin ids of an interned set (the
// value recorded on ProofStep.Origin). The slice is owned by the
// solver; callers must not mutate it.
func (s *Solver) OriginSetBases(id int32) []int32 {
	if s.origins == nil || id <= 0 || int(id) >= len(s.origins.sets) {
		return nil
	}
	return s.origins.sets[id]
}

// OriginSnapshot copies the interned sets and their work counters, for
// profile construction. Index i of both slices describes set id i.
func (s *Solver) OriginSnapshot() (sets [][]int32, counts []OriginCounts) {
	if s.origins == nil {
		return nil, nil
	}
	sets = make([][]int32, len(s.origins.sets))
	for i, set := range s.origins.sets {
		sets[i] = append([]int32(nil), set...)
	}
	return sets, append([]OriginCounts(nil), s.origins.counts...)
}

// clauseOrigin is the origin stamped onto clauses being added now.
func (s *Solver) clauseOrigin() int32 {
	if s.origins == nil {
		return 0
	}
	return s.origins.cur
}

// intern returns the set id for a list of base ids (sorted, deduped
// internally; the input is not mutated).
func (o *originState) intern(bases []int32) int32 {
	switch len(bases) {
	case 0:
		return 0
	case 1:
		if bases[0] < 0 {
			return 0
		}
	}
	sorted := append([]int32(nil), bases...)
	insertionSort(sorted)
	n := 0
	for i, b := range sorted {
		if b < 0 || (i > 0 && b == sorted[n-1]) {
			continue
		}
		sorted[n] = b
		n++
	}
	sorted = sorted[:n]
	return o.internSorted(sorted)
}

func (o *originState) internSorted(sorted []int32) int32 {
	if len(sorted) == 0 {
		return 0
	}
	k := setKey(sorted)
	if id, ok := o.keys[k]; ok {
		return id
	}
	id := int32(len(o.sets))
	o.sets = append(o.sets, append([]int32(nil), sorted...))
	o.counts = append(o.counts, OriginCounts{})
	o.keys[k] = id
	return id
}

// union returns the id of sets[a] ∪ sets[b], memoizing pairs: conflict
// analysis folds many antecedents and the same pairs recur constantly.
func (o *originState) union(a, b int32) int32 {
	if a == b || b == 0 {
		return a
	}
	if a == 0 {
		return b
	}
	if a > b {
		a, b = b, a
	}
	key := uint64(uint32(a))<<32 | uint64(uint32(b))
	if id, ok := o.unions[key]; ok {
		return id
	}
	sa, sb := o.sets[a], o.sets[b]
	merged := make([]int32, 0, len(sa)+len(sb))
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		switch {
		case sa[i] < sb[j]:
			merged = append(merged, sa[i])
			i++
		case sa[i] > sb[j]:
			merged = append(merged, sb[j])
			j++
		default:
			merged = append(merged, sa[i])
			i++
			j++
		}
	}
	merged = append(merged, sa[i:]...)
	merged = append(merged, sb[j:]...)
	id := o.internSorted(merged)
	o.unions[key] = id
	return id
}

// noteAntecedent collects a distinct antecedent set id during conflict
// analysis; analyze resolves few distinct origin sets per conflict, so
// a linear scan beats hashing.
func (o *originState) noteAntecedent(id int32) {
	if id == 0 {
		return
	}
	for _, seen := range o.scratch {
		if seen == id {
			return
		}
	}
	o.scratch = append(o.scratch, id)
}

// finishAnalyze folds the collected antecedent sets into the learned
// clause's origin and resets the scratch state.
func (o *originState) finishAnalyze() {
	var u int32
	for _, id := range o.scratch {
		u = o.union(u, id)
	}
	o.learned = u
	o.scratch = o.scratch[:0]
}

// setKey encodes a sorted base-id list as a byte string for map lookup,
// four bytes per id.
func setKey(sorted []int32) string {
	buf := make([]byte, 0, len(sorted)*4)
	for _, b := range sorted {
		u := uint32(b)
		buf = append(buf, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	return string(buf)
}

// insertionSort keeps tiny base-id lists and short clauses sorted without
// pulling a sort routine's call overhead into the hot path.
func insertionSort[T ~int32](a []T) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

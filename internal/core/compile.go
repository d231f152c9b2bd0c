package core

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/smt"
	"repro/internal/smt/passes"
)

// The names Options.Passes accepts, in pipeline order. "hoist" and
// "slice" are the paper's §6.1/§6.2 rewrites applied while the model is
// built; "propagate" (passes.Propagate, at compile time) and "coi"
// (passes.COI, per query) run afterwards over the finished assert list.
const (
	passHoist     = "hoist"
	passSlice     = "slice"
	passPropagate = "propagate"
	passCOI       = "coi"
)

// PassNames lists every pass name accepted by Options.Passes, in
// pipeline order: encoding passes first, then the term-level passes.
func PassNames() []string {
	return []string{passHoist, passSlice, passPropagate, passCOI}
}

// ValidatePasses checks an Options.Passes value without building a
// model, so commands can reject a bad -passes flag at startup.
func ValidatePasses(s string) error {
	_, err := resolvePasses(Options{Passes: s})
	return err
}

// Hoists reports whether Options.Passes enables the hoist pass. Modular
// composition requires it: without prefix/loop hoisting, cut imports
// carry symbolic loop-detection state the contract vocabulary cannot
// pin soundly.
func (o Options) Hoists() bool {
	spec, err := resolvePasses(o)
	return err == nil && spec.hoist
}

// passSpec is Options.Passes resolved: the encoding-time switches, the
// property-agnostic compile pass, and whether goal-relative
// cone-of-influence pruning runs at check time.
type passSpec struct {
	hoist, slice, propagate, coi bool
}

// resolvePasses interprets Options.Passes: the empty string and "all"
// enable everything, "none" nothing; otherwise a comma-separated subset
// of PassNames selects exactly the listed passes.
func resolvePasses(o Options) (passSpec, error) {
	switch o.Passes {
	case "", "all":
		return passSpec{hoist: true, slice: true, propagate: true, coi: true}, nil
	case "none":
		return passSpec{}, nil
	}
	var spec passSpec
	for _, name := range strings.Split(o.Passes, ",") {
		switch strings.TrimSpace(name) {
		case passHoist:
			spec.hoist = true
		case passSlice:
			spec.slice = true
		case passPropagate:
			spec.propagate = true
		case passCOI:
			spec.coi = true
		case "":
		default:
			return passSpec{}, fmt.Errorf("core: unknown pass %q (known: %s,all,none)",
				strings.TrimSpace(name), strings.Join(PassNames(), ","))
		}
	}
	return spec, nil
}

// CompiledNetwork is the property-agnostic compilation artifact: the
// model's constraint system N after the term-level passes, cached on the
// model and shared by its fresh checks and sessions. It is immutable once
// built.
type CompiledNetwork struct {
	// Asserts is the post-pass constraint system, ready to blast.
	Asserts []*smt.Term
	// BaseLen is the length of Model.Asserts this artifact covers.
	// Property builders append instrumentation constraints; a model
	// whose assert list has grown past BaseLen recompiles on demand,
	// while sessions blast the suffix incrementally instead.
	BaseLen int
	// PassStats itemizes the compile pass that produced the artifact
	// (empty when Options.Passes leaves propagate out).
	PassStats []passes.Stats
	// Origins runs parallel to Asserts: the provenance base ids (interned
	// in the model's Prov table) each post-pass assert descends from.
	Origins [][]int32
}

// Compile runs the property-agnostic term pass (propagate, when
// Options.Passes enables it) over the model's current constraint
// system and returns the artifact. The result is cached on the model:
// repeated calls are free until Asserts grows or is replaced, so every
// session and fresh check of one model shares a single compilation.
// Goal-relative pruning (coi) is not part of the artifact — it runs per
// query in CheckGoal.
func (m *Model) Compile() *CompiledNetwork {
	if cn := m.cachedCompile(); cn != nil {
		return cn
	}
	sp := m.Opts.Span.Start("compile")
	defer sp.End()
	return m.compile(sp)
}

// cachedCompile returns the cached artifact while it still covers the
// model's assert list, nil once the list grew or was replaced.
func (m *Model) cachedCompile() *CompiledNetwork {
	if cn := m.compiled; cn != nil && cn.BaseLen == len(m.Asserts) &&
		(cn.BaseLen == 0 || m.Asserts[cn.BaseLen-1] == m.compiledLast) {
		return cn
	}
	return nil
}

// compile runs the compile pass under sp — Compile's own span, or the
// compile phase of the query that found the cache stale — and caches the
// artifact.
func (m *Model) compile(sp *obs.Span) *CompiledNetwork {
	// Provenance rides along: one base id per assert, merged by the
	// pass wherever asserts merge.
	sys := &passes.System{Ctx: m.Ctx, Asserts: append([]*smt.Term(nil), m.Asserts...), Origins: m.tailOrigins(0)}
	cn := &CompiledNetwork{BaseLen: len(m.Asserts)}
	if m.spec.propagate {
		cn.PassStats = []passes.Stats{passes.Propagate(sys, sp)}
	}
	cn.Asserts, cn.Origins = sys.Asserts, sys.Origins
	sp.SetInt("asserts_in", int64(cn.BaseLen))
	sp.SetInt("asserts_out", int64(len(cn.Asserts)))
	m.compiled = cn
	m.compiledLast = nil
	if cn.BaseLen > 0 {
		m.compiledLast = m.Asserts[cn.BaseLen-1]
	}
	m.compiles++
	return cn
}

// CompileCount reports how many times the model actually compiled
// (i.e. cache misses). Benchmarks use it to show the
// batch path compiles once per network while the fresh path recompiles
// as instrumentation grows the assert list.
func (m *Model) CompileCount() int { return m.compiles }

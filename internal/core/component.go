package core

import (
	"fmt"
	"sort"

	"repro/internal/network"
	"repro/internal/provenance"
	"repro/internal/smt"
)

// TierModular marks a Result composed from per-component checks by the
// modular assume/guarantee pipeline (internal/modular).
const TierModular = "modular"

// EnvPin fixes one external peer's symbolic announcement to a concrete
// route (Valid with a prefix and metric, no MED, no communities) or to
// silence (!Valid). It is the interface-contract vocabulary of the
// modular pipeline: a cut eBGP session becomes an environment record in
// the importing component, and the neighbor's guarantee becomes a pin on
// that record.
type EnvPin struct {
	// Ext names the external peer (topology External.Name) carrying the
	// pinned announcement.
	Ext   string
	Valid bool
	// Prefix is the announced prefix; only significant when Valid.
	Prefix network.Prefix
	// Metric is the AS-path length of the announcement at the cut.
	Metric int
}

// PinEnv returns assumption terms forcing each listed environment record
// to its pinned value. Unlike PinEnvironment it only touches the listed
// externals (others stay symbolic), only the main slice, and returns
// assumptions instead of growing Asserts, so one compiled component can
// be checked under many different pin subsets.
func (m *Model) PinEnv(pins []EnvPin) ([]*smt.Term, error) {
	var out []*smt.Term
	for _, p := range pins {
		rec := m.Main.Env[p.Ext]
		if rec == nil {
			return nil, fmt.Errorf("core: no environment record for external %q", p.Ext)
		}
		out = append(out, m.pinRecord(rec, p)...)
	}
	return out, nil
}

// ExportMatches returns the guarantee term for one cut session: the
// record the component exports toward ext equals the pinned contract.
// A !Valid pin means the component must stay silent toward ext.
func (m *Model) ExportMatches(ext string, p EnvPin) (*smt.Term, error) {
	rec := m.Main.ExtExports[ext]
	if rec == nil {
		return nil, fmt.Errorf("core: no export record for external %q", ext)
	}
	if !p.Valid {
		return m.Ctx.Not(rec.Valid), nil
	}
	return m.Ctx.And(m.pinRecord(rec, p)...), nil
}

// pinRecord equates a record with a pin. For a Valid pin the route is
// present with the pinned prefix length and metric, MED zero and no
// communities — exactly what an eBGP hop under the modular residue rules
// (no MED-setting maps, no community usage) puts on the wire. Constant
// record fields (sliced models) fold away harmlessly.
func (m *Model) pinRecord(rec *Record, p EnvPin) []*smt.Term {
	c := m.Ctx
	if !p.Valid {
		return []*smt.Term{c.Not(rec.Valid)}
	}
	out := []*smt.Term{
		rec.Valid,
		c.Eq(rec.PrefixLen, c.BV(uint64(p.Prefix.Len), WidthPrefixLen)),
		c.Eq(rec.Metric, c.BV(uint64(p.Metric), WidthMetric)),
		c.Eq(rec.MED, c.BV(0, WidthMED)),
	}
	if rec.Prefix != nil {
		out = append(out, c.Eq(rec.Prefix, c.BV(uint64(p.Prefix.Addr), WidthIP)))
	}
	comms := make([]string, 0, len(rec.Comms))
	for cm := range rec.Comms {
		comms = append(comms, cm)
	}
	sort.Strings(comms)
	for _, cm := range comms {
		bit := rec.Comms[cm]
		if bit.Op() != smt.OpBoolVar {
			continue
		}
		out = append(out, c.Not(bit))
	}
	return out
}

// EnvContractLB returns the invariant lower bound assumed of every cut
// import, valid or not: if the peer announces at all, the announcement
// carries the contract prefix, MED zero and an AS-path length no shorter
// than the contract metric. Under the modular residue rules every
// announcement for the goal prefix is relayed hop-by-hop from an
// originator with the metric incremented per eBGP hop, so the shortest
// possible path length — the contract metric — bounds all of them. This
// weaker assumption breaks the circularity in discharging guarantees:
// higher-strata imports stay otherwise free, yet cannot advertise
// impossibly short paths.
func (m *Model) EnvContractLB(p EnvPin) (*smt.Term, error) {
	rec := m.Main.Env[p.Ext]
	if rec == nil {
		return nil, fmt.Errorf("core: no environment record for external %q", p.Ext)
	}
	c := m.Ctx
	if !p.Valid {
		return c.Not(rec.Valid), nil
	}
	body := []*smt.Term{
		c.Eq(rec.PrefixLen, c.BV(uint64(p.Prefix.Len), WidthPrefixLen)),
		c.Ule(c.BV(uint64(p.Metric), WidthMetric), rec.Metric),
		c.Eq(rec.MED, c.BV(0, WidthMED)),
	}
	if rec.Prefix != nil {
		body = append(body, c.Eq(rec.Prefix, c.BV(uint64(p.Prefix.Addr), WidthIP)))
	}
	return c.Implies(rec.Valid, c.And(body...)), nil
}

// ReachVia instruments the slice with reachability booleans that count
// local delivery and exits toward the allowed externals only. It is the
// component-local obligation of the modular composition: an allowed exit
// is a cut session whose far side holds a valid contract, so crossing it
// hands the packet to a neighbor component that (by its own obligation)
// delivers. Exits toward real externals or invalid-contract cuts do not
// count.
//
// The variables are named for the slice alone, not for the allowed set:
// call it once per model and reuse the returned map.
func (m *Model) ReachVia(sl *Slice, allowed map[string]bool) map[string]*smt.Term {
	return m.reachability(sl, "reachvia", "reachviadist", func(ext string) bool { return allowed[ext] }, "")
}

// ComposeVerdicts conjoins component-local results into one composed
// Result: verified iff every component verified, the counterexample the
// first falsified component's, Stats and certificates the sums of the
// components', blame the deduped union of their blames and SAT sizes the
// per-check peak. The components are only read. The ledger, the times
// read from it and the Tier are left to the caller, which knows how the
// component checks were run and booked.
func ComposeVerdicts(rs []*Result) *Result {
	out := &Result{Verified: true}
	var blame []provenance.Origin
	for _, r := range rs {
		out.SATVars = max(out.SATVars, r.SATVars)
		out.SATClauses = max(out.SATClauses, r.SATClauses)
		out.Stats = out.Stats.Plus(r.Stats)
		if r.Certificate != nil {
			out.Certificate = out.Certificate.plus(r.Certificate)
		}
		blame = append(blame, r.Blame...)
		if !r.Verified && out.Verified {
			out.Verified = false
			out.Counterexample = r.Counterexample
		}
	}
	out.Blame = provenance.DedupeOrigins(blame)
	return out
}

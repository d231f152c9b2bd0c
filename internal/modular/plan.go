package modular

import (
	"sort"

	"repro/internal/network"
	"repro/internal/protograph"
	"repro/internal/tiered"
)

// CompPlan is one component's slice of the work: the contracts it
// assumes (Imports — sessions announcing into it), the contracts it must
// discharge (Exports — sessions it announces on), and the goal sources
// that live inside it. Key is the canonical isomorphism-class key; plans
// with equal keys verify once and share the verdict.
type CompPlan struct {
	Comp    *Component
	Imports []*Contract // sorted by session ID
	Exports []*Contract // sorted by session ID
	Srcs    []string    // goal sources in this component, sorted
	Key     string
	// Vals is the component's canonical value pool (filled by classKey);
	// index-aligned pools of same-key plans give the blame-renaming
	// bijection between class members.
	Vals []network.Prefix
}

// Plan is the full modular schedule for one (cut, goal) pair. A
// non-empty Residue (its own, the cut's or the contracts') means the
// goal must be answered monolithically.
type Plan struct {
	Cut     *Cut
	Goal    tiered.Goal
	Con     *Contracts
	Comps   []*CompPlan
	Residue []string // goal-level residue only; see AllResidue
}

// AllResidue merges the cut, contract and goal residues.
func (p *Plan) AllResidue() []string {
	seen := map[string]bool{}
	var out []string
	for _, rs := range [][]string{p.Cut.Residue, p.Con.Residue, p.Residue} {
		for _, r := range rs {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Runnable reports whether the modular pipeline may answer the goal.
func (p *Plan) Runnable() bool { return len(p.AllResidue()) == 0 }

func isLengthCheck(check string) bool {
	switch check {
	case "bounded-length", "bounded-length-all", "equal-lengths":
		return true
	}
	return false
}

// NewPlan derives contracts for the goal destination and assigns every
// component its imports, exports and sources. Goal-level residue rules
// apply only to genuinely multi-component cuts — a single-component
// "cut" is the monolithic encoding and supports everything.
func NewPlan(g *protograph.Graph, cut *Cut, goal tiered.Goal) *Plan {
	p := &Plan{Cut: cut, Goal: goal, Con: DeriveContracts(g, cut, goal.Subnet)}
	residue := map[string]bool{}

	if cut.MultiComponent() {
		switch goal.Check {
		case "reachability", "reachability-all", "bounded-length",
			"bounded-length-all", "equal-lengths", "blackholes",
			"multipath-consistency":
		default:
			// Waypoint/isolation/loop/leak-style goals need composition
			// arguments (path shape across several components) the
			// contract vocabulary does not carry yet.
			residue["goal-check"] = true
		}
		if !goal.HasSubnet {
			// Without a destination restriction the contract would have
			// to describe announcements for every prefix at once.
			residue["goal-no-subnet"] = true
		}
		if goal.MaxFailures > 0 {
			// A shared failure budget cannot be split soundly across
			// independently-verified components.
			residue["goal-max-failures"] = true
		}
		if goal.Via != "" {
			residue["goal-check"] = true
		}
		for _, src := range goal.Sources() {
			if _, ok := cut.CompOf[src]; !ok {
				residue["goal-unknown-src"] = true
			}
		}
		if isLengthCheck(goal.Check) {
			// Length composition replaces per-hop SMT reasoning with
			// contract-metric arithmetic; that identifies path length
			// with BGP-hop distance, which needs every internal hop to
			// be an AS hop (singleton components) and delivery to happen
			// only at the originators.
			for _, comp := range cut.Components {
				if len(comp.Routers) > 1 {
					residue["length-component"] = true
					break
				}
			}
			orig := map[string]bool{}
			for _, o := range p.Con.Originators {
				orig[o] = true
			}
			for _, n := range g.Topo.Nodes {
				cfg := g.Configs[n.Name]
				for _, ifc := range cfg.Interfaces {
					if !ifc.Shutdown && !ifc.Management && ifc.Prefix.Overlaps(goal.Subnet) && !orig[n.Name] {
						// A connected route at a non-originator could
						// deliver early, making the real path shorter
						// than the BGP distance.
						residue["length-owner"] = true
					}
				}
				for _, st := range cfg.Statics {
					if st.Prefix.Overlaps(goal.Subnet) {
						residue["length-static"] = true
					}
				}
			}
		}
	}

	for r := range residue {
		p.Residue = append(p.Residue, r)
	}
	sort.Strings(p.Residue)

	srcsOf := map[int][]string{}
	for _, src := range goal.Sources() {
		if ci, ok := cut.CompOf[src]; ok {
			srcsOf[ci] = append(srcsOf[ci], src)
		}
	}
	for _, comp := range cut.Components {
		cp := &CompPlan{Comp: comp, Srcs: srcsOf[comp.Index]}
		sort.Strings(cp.Srcs)
		p.Comps = append(p.Comps, cp)
	}
	for _, s := range cut.Sessions { // already ID-sorted; Comps[i].Comp.Index == i
		c := p.Con.BySession[s.ID]
		p.Comps[s.ToComp].Imports = append(p.Comps[s.ToComp].Imports, c)
		p.Comps[s.FromComp].Exports = append(p.Comps[s.FromComp].Exports, c)
	}
	for _, cp := range p.Comps {
		cp.Key = classKey(g, cp, goal)
	}
	return p
}

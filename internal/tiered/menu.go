package tiered

import (
	"repro/internal/network"
	"repro/internal/protograph"
	"repro/internal/provenance"
)

// ReasonSimulated is the Outcome.Reason of a goal falsified by rule 4:
// the stable state of one menu environment violates the property.
const ReasonSimulated = "simulated-violation"

// menuLimit bounds the (representative, environment) pairs rule 4
// evaluates for one goal; past it the goal keeps its residue.
const menuLimit = 256

// outsideFragment reports whether rule 3 handed the goal down only because
// the network is outside its fragment: the deterministic preconditions or
// a plane's own reason, as opposed to a failure budget, a live cycle or
// too many classes.
func (a *Analysis) outsideFragment(out Outcome) bool {
	if out.Decided || out.Reason == "" {
		return false
	}
	switch out.Reason {
	case a.detReason, a.aclReason, "external-influence", "no-convergence":
		return true
	}
	return false
}

// menuPeer is one announcing entry of the menu: an external peer, by
// position in Topo.Externals, and its session.
type menuPeer struct {
	ext  int
	sess *protograph.BGPSession
}

// menuPeers lists the external peers in topology order.
func (a *Analysis) menuPeers() []menuPeer {
	topo := a.G.Topo
	var out []menuPeer
	for i, e := range topo.Externals {
		for _, sess := range a.G.SessionsOf(e.Router) {
			if sess.Kind == protograph.EBGPExternal && sess.Ext == e {
				out = append(out, menuPeer{i, sess})
				break
			}
		}
	}
	return out
}

// admits reports whether the peer's import may let rep/32 through. When
// it certainly does not, the peer's plane is the empty environment's.
func (a *Analysis) admits(p menuPeer, rep network.IP) bool {
	inMap := p.sess.NbrAtA.InMap
	if inMap == "" {
		return true
	}
	cfg := a.cfgs[p.sess.A.Index]
	rm := cfg.RouteMaps[inMap]
	return rm != nil && plenMaySurvive(cfg, rm, 32, rep)
}

// falsify is rule 4. It walks the menu — the empty environment, then each
// external peer alone announcing the representative's /32 — over the
// representatives, and evaluates each plane with violated (given the
// representative's position). The first violation answers falsified with
// that plane's packet and environment as the counterexample; otherwise the
// goal keeps the residue rule 3 gave it. A plane that did not converge or
// whose evaluation is inconclusive is skipped (DESIGN §14).
func (a *Analysis) falsify(old Outcome, reps []network.IP, violated func(pl *plane, i int) (bool, string)) Outcome {
	peers := a.menuPeers()
	tries := 0
	defer func() {
		a.mu.Lock()
		a.menuTries += tries
		a.mu.Unlock()
	}()
	for entry := -1; entry < len(peers); entry++ {
		k := planeKey{peer: -1}
		if entry >= 0 {
			k.peer = peers[entry].ext
		}
		for i, rep := range reps {
			if entry >= 0 && !a.admits(peers[entry], rep) {
				continue
			}
			if tries == menuLimit {
				return old
			}
			tries++
			k.rep = rep
			pl, _ := a.planeUnder(k)
			if pl == nil {
				continue
			}
			if bad, reason := violated(pl, i); !bad || reason != "" {
				continue
			}
			blame := pl.selections()
			if entry >= 0 {
				e := a.G.Topo.Externals[k.peer]
				blame = append(blame, provenance.Origin{Router: e.Router.Name, Proto: "bgp", Kind: "neighbor", Name: "ext." + e.Name})
				provenance.SortOrigins(blame)
			}
			return falsified(ReasonSimulated, blame, pl.pkt, pl.env)
		}
	}
	return old
}

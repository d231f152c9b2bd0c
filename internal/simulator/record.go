// Package simulator is a concrete control-plane simulator: given router
// configurations, one concrete environment (external announcements and
// failed links) and one concrete packet, it computes the stable state the
// control plane converges to and the resulting forwarding behavior.
//
// It plays the role Batfish plays in the paper: a per-environment oracle
// used to validate the symbolic encoder by differential testing, and a
// counterexample replayer. Its transfer functions (import/export filters,
// route selection) implement the same slice semantics as internal/core —
// one route record per protocol edge, restricted to the packet's
// destination.
package simulator

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/config"
)

// Record is a concrete control-plane route record: the concrete analogue
// of the symbolic record of Figure 3.
type Record struct {
	Valid     bool
	PrefixLen int
	AD        int
	LocalPref int
	Metric    int
	MED       int
	NbrASN    uint32
	Internal  bool // learned via iBGP
	// FromClient marks routes learned from a route-reflector client,
	// which may be reflected onward to other iBGP peers.
	FromClient bool
	RID        uint32
	Comms      map[string]bool
	// Path lists routers the announcement traversed, newest last; used
	// for concrete loop suppression (the analogue of AS-path loop
	// detection).
	Path []string
	// Proto is the protocol that produced the record.
	Proto config.Protocol
	// Origin describes where the route entered: an interface (connected),
	// a static route, a neighbor or an external peer.
	Origin string
	// FromNode is the internal neighbor that supplied the record (""
	// for local origination or external imports).
	FromNode string
	// FromExt is the external peer that supplied the record ("" otherwise).
	FromExt string
	// Drop marks a null0 static route.
	Drop bool
}

// Invalid is the absent record.
func Invalid() Record { return Record{} }

// HasComm reports whether the community is attached.
func (r Record) HasComm(c string) bool { return r.Comms[c] }

// withComm returns a copy with the community added or removed. Records
// share their Comms maps and Paths, so neither is ever written in place:
// the copy gets a map of its own.
func (r Record) withComm(c string, on bool) Record {
	comms := make(map[string]bool, len(r.Comms)+1)
	for k, v := range r.Comms {
		comms[k] = v
	}
	if on {
		comms[c] = true
	} else {
		delete(comms, c)
	}
	r.Comms = comms
	return r
}

// equalRoute compares the fields that define a stable state (everything
// except provenance bookkeeping).
func equalRoute(a, b Record) bool {
	if a.Valid != b.Valid {
		return false
	}
	if !a.Valid {
		return true
	}
	return sameAttrs(a, b) && len(a.Path) == len(b.Path)
}

// sameAttrs is equalRoute on two valid records, path length aside.
func sameAttrs(a, b Record) bool {
	if a.PrefixLen != b.PrefixLen || a.AD != b.AD || a.LocalPref != b.LocalPref ||
		a.Metric != b.Metric || a.MED != b.MED || a.Internal != b.Internal ||
		a.FromClient != b.FromClient ||
		a.RID != b.RID || a.NbrASN != b.NbrASN || a.FromNode != b.FromNode || a.FromExt != b.FromExt {
		return false
	}
	if len(a.Comms) != len(b.Comms) {
		return false
	}
	for k := range a.Comms {
		if !b.Comms[k] {
			return false
		}
	}
	return true
}

// CompareMode selects MED handling for route comparison.
type CompareMode struct {
	// AlwaysCompareMED compares MED regardless of neighboring AS.
	AlwaysCompareMED bool
}

// Better reports whether a is strictly preferred over b under the decision
// process shared with the symbolic encoder:
//
//  1. longer prefix (longest-prefix match),
//  2. lower administrative distance,
//  3. higher local preference,
//  4. lower metric (path length / IGP cost),
//  5. lower MED (same neighbor AS, unless AlwaysCompareMED),
//  6. eBGP over iBGP,
//  7. lower router id.
//
// Better is the cross-protocol (overall best) order. Within one protocol
// instance use BetterIntra, which skips administrative distance: inside
// BGP, local preference dominates even though iBGP routes carry a higher
// AD than eBGP routes. Both records must be valid.
func Better(a, b Record, mode CompareMode) bool {
	if a.PrefixLen != b.PrefixLen {
		return a.PrefixLen > b.PrefixLen
	}
	if a.AD != b.AD {
		return a.AD < b.AD
	}
	return betterAttrs(a, b, mode)
}

// BetterIntra is the within-protocol preference order: Better without the
// administrative-distance step.
func BetterIntra(a, b Record, mode CompareMode) bool {
	if a.PrefixLen != b.PrefixLen {
		return a.PrefixLen > b.PrefixLen
	}
	return betterAttrs(a, b, mode)
}

func betterAttrs(a, b Record, mode CompareMode) bool {
	if a.LocalPref != b.LocalPref {
		return a.LocalPref > b.LocalPref
	}
	if a.Metric != b.Metric {
		return a.Metric < b.Metric
	}
	if (mode.AlwaysCompareMED || a.NbrASN == b.NbrASN) && a.MED != b.MED {
		return a.MED < b.MED
	}
	if a.Internal != b.Internal {
		return !a.Internal
	}
	return a.RID < b.RID
}

// EquallyGood reports whether neither record is strictly preferred when
// the router-id tiebreak is ignored: the multipath relaxation of §4.
func EquallyGood(a, b Record, mode CompareMode) bool {
	if !a.Valid || !b.Valid {
		return false
	}
	if a.PrefixLen != b.PrefixLen || a.AD != b.AD || a.LocalPref != b.LocalPref || a.Metric != b.Metric {
		return false
	}
	if (mode.AlwaysCompareMED || a.NbrASN == b.NbrASN) && a.MED != b.MED {
		return false
	}
	return a.Internal == b.Internal
}

// String renders the record compactly for debugging and counterexamples.
func (r Record) String() string {
	if !r.Valid {
		return "<no route>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%v len=%d ad=%d lp=%d metric=%d", r.Proto, r.PrefixLen, r.AD, r.LocalPref, r.Metric)
	if r.MED != 0 {
		fmt.Fprintf(&b, " med=%d", r.MED)
	}
	if r.Internal {
		b.WriteString(" ibgp")
	}
	if len(r.Comms) > 0 {
		cs := make([]string, 0, len(r.Comms))
		for c := range r.Comms {
			cs = append(cs, c)
		}
		sort.Strings(cs)
		fmt.Fprintf(&b, " comms=%s", strings.Join(cs, ","))
	}
	if r.Origin != "" {
		fmt.Fprintf(&b, " via %s", r.Origin)
	}
	return b.String()
}

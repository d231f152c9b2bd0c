package simulator

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/config"
)

// Outcome classifies the fate of a packet along one forwarding path.
type Outcome int

// Walk outcomes.
const (
	// Delivered: the packet reached a router that delivers it onto a
	// connected subnet containing the destination.
	Delivered Outcome = iota
	// Exited: the packet left the network toward an external peer.
	Exited
	// DroppedACL: an access list discarded the packet.
	DroppedACL
	// DroppedNull: a null0 static route discarded the packet.
	DroppedNull
	// Blackhole: a router had no route (or an unresolvable one).
	Blackhole
	// Looped: the packet revisited a router.
	Looped
)

func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case Exited:
		return "exited"
	case DroppedACL:
		return "dropped-acl"
	case DroppedNull:
		return "dropped-null"
	case Blackhole:
		return "blackhole"
	case Looped:
		return "looped"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// WalkResult aggregates the fates of a packet over every ECMP branch.
type WalkResult struct {
	// Outcomes is the set of outcomes over all branches.
	Outcomes map[Outcome]bool
	// Paths lists each branch as the sequence of visited routers, with a
	// final pseudo-element describing the fate.
	Paths [][]string
	// DeliveredAt collects routers that delivered the packet; ExitedVia
	// the external peers used.
	DeliveredAt map[string]bool
	ExitedVia   map[string]bool
	// MaxHops is the longest router path among delivered/exited branches.
	MaxHops int
}

// AllDelivered reports whether every branch delivered the packet
// internally.
func (w *WalkResult) AllDelivered() bool {
	return len(w.Outcomes) == 1 && w.Outcomes[Delivered]
}

// Reaches reports whether some branch delivered or exited.
func (w *WalkResult) Reaches() bool { return w.Outcomes[Delivered] || w.Outcomes[Exited] }

// String summarizes the walk.
func (w *WalkResult) String() string {
	var os []string
	for o := range w.Outcomes {
		os = append(os, o.String())
	}
	sort.Strings(os)
	return fmt.Sprintf("{%s, %d paths}", strings.Join(os, "|"), len(w.Paths))
}

// Walk traces a packet from a starting router through the data plane of a
// computed stable state, following every multipath branch, applying ACLs,
// and classifying each branch's fate.
func (s *Simulator) Walk(res *Result, from string, pkt config.Packet) *WalkResult {
	w := &WalkResult{
		Outcomes:    map[Outcome]bool{},
		DeliveredAt: map[string]bool{},
		ExitedVia:   map[string]bool{},
	}
	s.walk(res, from, pkt, []string{}, map[string]bool{}, w)
	return w
}

func (s *Simulator) walk(res *Result, at string, pkt config.Packet, path []string, visited map[string]bool, w *WalkResult) {
	if visited[at] {
		w.Outcomes[Looped] = true
		w.Paths = append(w.Paths, append(append([]string(nil), path...), at, "<loop>"))
		return
	}
	visited[at] = true
	defer delete(visited, at)
	path = append(path, at)

	st := res.States[at]
	cfg := s.G.Configs[at]
	finish := func(o Outcome, note string) {
		w.Outcomes[o] = true
		w.Paths = append(w.Paths, append(append([]string(nil), path...), note))
		if o == Delivered || o == Exited {
			if hops := len(path) - 1; hops > w.MaxHops {
				w.MaxHops = hops
			}
		}
	}
	switch {
	case st == nil || !st.Best.Valid:
		finish(Blackhole, "<no route>")
		return
	case st.DeliveredLocal:
		w.DeliveredAt[at] = true
		finish(Delivered, "<delivered>")
		return
	case st.DroppedNull:
		finish(DroppedNull, "<null0>")
		return
	case len(st.Hops) == 0:
		finish(Blackhole, "<unresolved>")
		return
	}

	for _, h := range st.Hops {
		if h.Ext != "" {
			// Egress ACL on the external-facing interface.
			if !cfg.Permits(s.G.Topo.ExternalIface(s.G.Topo.Node(at), h.Ext), false, pkt) {
				finish(DroppedACL, "<out-acl to "+h.Ext+">")
				continue
			}
			w.ExitedVia[h.Ext] = true
			finish(Exited, "<exit "+h.Ext+">")
			continue
		}
		link := s.G.Topo.FindLink(at, h.Node)
		var outIface, inIface string
		if link != nil {
			outIface = link.IfaceOf(s.G.Topo.Node(at))
			inIface = link.IfaceOf(s.G.Topo.Node(h.Node))
		}
		if !cfg.Permits(outIface, false, pkt) {
			finish(DroppedACL, "<out-acl to "+h.Node+">")
			continue
		}
		if !s.G.Configs[h.Node].Permits(inIface, true, pkt) {
			finish(DroppedACL, "<in-acl at "+h.Node+">")
			continue
		}
		s.walk(res, h.Node, pkt, path, visited, w)
	}
}

// FIBEntry renders one router's installed route for debugging.
func FIBEntry(res *Result, router string) string {
	st := res.States[router]
	if st == nil || !st.Best.Valid {
		return router + ": <no route>"
	}
	hops := make([]string, 0, len(st.Hops))
	for _, h := range st.Hops {
		hops = append(hops, h.String())
	}
	extra := ""
	if st.DeliveredLocal {
		extra = " (local)"
	}
	if st.DroppedNull {
		extra = " (null0)"
	}
	return fmt.Sprintf("%s: %v -> [%s]%s", router, st.Best, strings.Join(hops, " "), extra)
}

package pipeline

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/properties"
	"repro/internal/protograph"
	"repro/internal/smt"
	"repro/internal/tiered"
)

// RequestError is an error about what was asked — a malformed spec,
// configuration text that does not parse or form a network, a router the
// network does not have — as opposed to a failure of the verifier. A
// server reports it as the client's mistake (errors.As).
type RequestError struct{ Err error }

func (e *RequestError) Error() string { return e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }

func requestErrorf(format string, a ...any) error {
	return &RequestError{fmt.Errorf(format, a...)}
}

// Default parameter values of a Spec, shared by the minesweeper CLI
// flags and the daemon's request body.
const (
	DefaultHops   = 4
	DefaultMaxLen = 24
)

// Spec names one property query the way a request does: the minesweeper
// CLI flags, the daemon's JSON body and the fuzz corpus's check lines are
// all Specs. The zero values of Hops and MaxLen mean "use the default".
type Spec struct {
	// Check selects the property: reachability, isolation,
	// mgmt-reachability, blackholes, multipath-consistency, loops,
	// bounded-length, waypoint, no-leak, equivalence or
	// fault-invariance.
	Check string `json:"check"`
	// Src is the source router for per-source properties.
	Src string `json:"src,omitempty"`
	// Via is the waypoint router for the waypoint property.
	Via string `json:"via,omitempty"`
	// Subnet is the destination subnet in CIDR form.
	Subnet string `json:"subnet,omitempty"`
	// Pair is the router pair "a,b" of the equivalence check.
	Pair string `json:"pair,omitempty"`
	// Hops bounds path length for bounded-length (default 4).
	Hops int `json:"hops,omitempty"`
	// MaxLen is the maximum exported prefix length for no-leak
	// (default 24).
	MaxLen int `json:"maxlen,omitempty"`
	// MaxFailures lets environments fail up to this many links; 0 means
	// none (1 for fault-invariance). The same property under different
	// failure bounds is a different query.
	MaxFailures int `json:"max_failures,omitempty"`
}

// Normalize fills parameter defaults so equivalent specs compare (and
// hash) equal: hops 0 and hops 4 are the same bounded-length query, and
// fault-invariance under 0 failures is the question under 1.
func (s Spec) Normalize() Spec {
	if s.Check == "bounded-length" && s.Hops == 0 {
		s.Hops = DefaultHops
	}
	if s.Check == "no-leak" && s.MaxLen == 0 {
		s.MaxLen = DefaultMaxLen
	}
	if s.Check == "fault-invariance" && s.MaxFailures == 0 {
		s.MaxFailures = 1
	}
	return s
}

// Goal is the one translation of a request into a goal. It rejects what
// can be rejected without the network: an unknown or missing check, a
// missing parameter, a malformed subnet or pair. That src, via and the
// pair name routers of the network is checked where the network is known
// (Run's monolithic step).
func (s Spec) Goal() (tiered.Goal, error) {
	s = s.Normalize()
	var need []string
	switch s.Check {
	case "reachability", "isolation", "bounded-length":
		need = []string{"src", "subnet"}
	case "waypoint":
		need = []string{"src", "via", "subnet"}
	case "mgmt-reachability", "blackholes", "multipath-consistency", "loops", "no-leak", "fault-invariance", "equivalence":
	case "":
		return tiered.Goal{}, requestErrorf("pipeline: check is required")
	default:
		return tiered.Goal{}, requestErrorf("pipeline: unknown check %q", s.Check)
	}
	have := map[string]string{"src": s.Src, "via": s.Via, "subnet": s.Subnet}
	for _, field := range need {
		if have[field] == "" {
			return tiered.Goal{}, requestErrorf("pipeline: check %q requires %s", s.Check, field)
		}
	}
	g := tiered.Goal{
		Check:       s.Check,
		Src:         s.Src,
		Via:         s.Via,
		Hops:        s.Hops,
		MaxLen:      s.MaxLen,
		MaxFailures: s.MaxFailures,
	}
	if s.Check == "equivalence" {
		g.Srcs = strings.Split(s.Pair, ",")
		if len(g.Srcs) != 2 || g.Srcs[0] == "" || g.Srcs[1] == "" {
			return tiered.Goal{}, requestErrorf("pipeline: check %q requires pair a,b, got %q", s.Check, s.Pair)
		}
	}
	if s.Subnet != "" {
		sub, err := network.ParsePrefix(s.Subnet)
		if err != nil {
			return tiered.Goal{}, requestErrorf("pipeline: subnet: %w", err)
		}
		g.Subnet, g.HasSubnet = sub, true
	}
	return g, nil
}

// Property is the one mapping of a single-model goal (not equivalence or
// fault-invariance) to the SAT path's query: the property term on m and
// the assumptions it is checked under. The assumptions follow one rule:
// the failure budget (no failures, or at most goal.MaxFailures), and the
// destination restriction whenever the goal has a subnet. Source-property terms already embed their subnet
// guard, so there the restriction is redundant; for the whole-network
// properties (blackholes, multipath-consistency, ...) it is what gives a
// subnet-scoped goal its meaning — matching the modular composition,
// which always works per destination prefix.
//
// Building a property interns into the model's unsynchronized term
// context and may append instrumentation constraints to the model;
// callers sharing a model serialize Property and the check that follows.
// The term is built before the assumptions: that order numbers the
// solver's variables, and the committed work counts are pinned to it.
func Property(m *core.Model, goal tiered.Goal) (*smt.Term, []*smt.Term, error) {
	srcs := goal.Sources()
	switch goal.Check {
	case "reachability", "isolation", "bounded-length", "waypoint":
		if goal.Src == "" {
			return nil, nil, requestErrorf("pipeline: check %q requires a source", goal.Check)
		}
		fallthrough
	case "reachability-all", "bounded-length-all", "equal-lengths":
		if len(srcs) == 0 || !goal.HasSubnet {
			return nil, nil, requestErrorf("pipeline: check %q requires sources and a subnet", goal.Check)
		}
	}
	routers := srcs
	if goal.Check == "waypoint" {
		routers = append(append([]string(nil), srcs...), goal.Via)
	}
	if err := knownRouters(m.G, routers); err != nil {
		return nil, nil, err
	}
	var p *smt.Term
	switch goal.Check {
	case "reachability":
		p = properties.Reachable(m, goal.Src, goal.Subnet)
	case "reachability-all":
		p = properties.ReachableAll(m, srcs, goal.Subnet)
	case "isolation":
		p = properties.Isolated(m, goal.Src, goal.Subnet)
	case "bounded-length":
		p = properties.BoundedLength(m, goal.Src, goal.Subnet, goal.Hops)
	case "bounded-length-all":
		p = properties.BoundedLengthAll(m, srcs, goal.Subnet, goal.Hops)
	case "equal-lengths":
		p = properties.EqualLengths(m, srcs, goal.Subnet)
	case "waypoint":
		p = properties.Waypointed(m, goal.Src, goal.Via, goal.Subnet)
	case "mgmt-reachability":
		p = properties.ManagementReachable(m)
	case "blackholes":
		p = properties.NoBlackholes(m)
	case "multipath-consistency":
		p = properties.MultipathConsistent(m)
	case "loops":
		p = properties.NoForwardingLoops(m, nil)
	case "no-leak":
		p = properties.NoLeak(m, nil, goal.MaxLen)
	case "drops-at-edge":
		p = properties.DropsAtEdgeOnly(m, func(r string) bool { return slices.Contains(srcs, r) })
	default:
		return nil, nil, requestErrorf("pipeline: unknown check %q", goal.Check)
	}
	var budget *smt.Term
	if goal.MaxFailures > 0 {
		budget = m.AtMostFailures(goal.MaxFailures)
	} else {
		budget = m.NoFailures()
	}
	assumptions := []*smt.Term{budget}
	if goal.HasSubnet {
		assumptions = append(assumptions, properties.DstIn(m, goal.Subnet))
	}
	return p, assumptions, nil
}

// knownRouters reports the first of routers the network does not have,
// as the client's mistake.
func knownRouters(g *protograph.Graph, routers []string) error {
	for _, r := range routers {
		if g.Topo.Node(r) == nil {
			return requestErrorf("pipeline: %q is not a router in this network", r)
		}
	}
	return nil
}

// Package tiered is a sound graph-analysis fast path in front of the SAT
// pipeline. It extends the protocol-level decomposition of
// internal/protograph into two conservative approximations of the
// network's forwarding behavior:
//
//   - an over-approximation ("may-graph"): every router pair that could
//     possibly exchange traffic for some destination under some
//     environment — per-protocol adjacency closure, BGP session edges,
//     static next hops — cut only by ACLs that provably discard every
//     packet of the query's destination set; and
//   - an under-approximation (the "deterministic path"): for networks
//     whose routing is environment-independent up to prefix-length
//     domination, the concrete simulator's unique stable state, evaluated
//     once per forwarding-equivalence class of the destination set;
//   - outside that fragment, concrete witnesses found by the same walk
//     over stable states: those of a fixed menu of environments (silence,
//     then each external peer announcing the destination's /32), any of
//     which that violates the property is a counterexample. There the
//     walk only falsifies.
//
// A goal is answered definitively only when the relevant approximation is
// sound for its property class (see DESIGN.md §14 for the per-class
// argument); everything else is classified as residue and falls through
// to the existing SAT path unchanged. Fast-path verdicts carry
// provenance (Outcome.Blame) in the same vocabulary as the SAT path.
package tiered

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/obs/cost"
	"repro/internal/provenance"
	"repro/internal/simulator"
)

// Tier labels for core.Result.Tier.
const (
	// TierGraph marks a verdict answered by the graph fast path.
	TierGraph = "graph"
	// TierSAT marks a verdict that fell through to the SAT pipeline.
	TierSAT = "sat"
)

// ValidateTiers rejects malformed -tiers values. The accepted grammar
// mirrors core.ValidatePasses: "" (default, graph tier on), "graph,sat",
// "graph" (same: residue always falls through to SAT), "sat" or "none"
// (fast path disabled, today's behavior exactly).
func ValidateTiers(s string) error {
	switch strings.TrimSpace(s) {
	case "", "graph,sat", "graph", "sat", "none":
		return nil
	}
	return fmt.Errorf("tiered: unknown -tiers value %q (want graph,sat | graph | sat | none)", s)
}

// Enabled reports whether the graph tier runs for the given -tiers value.
func Enabled(s string) bool {
	switch strings.TrimSpace(s) {
	case "", "graph,sat", "graph":
		return true
	}
	return false
}

// Goal names one property query in structured form. It is the query
// vocabulary of the whole pipeline: the graph tier and the modular
// composition decide it directly, and internal/pipeline maps it to the
// SAT path's property term — the tier cannot interpret an opaque term,
// so every surface states its question as a Goal.
type Goal struct {
	// Check selects the property class: reachability, reachability-all,
	// isolation, waypoint, bounded-length, bounded-length-all,
	// equal-lengths, loops, blackholes, multipath-consistency,
	// mgmt-reachability, no-leak, drops-at-edge (ACL drops only at the
	// edge routers Srcs), equivalence (§5 local equivalence of the two
	// routers Srcs) or fault-invariance (every router's reachability
	// unchanged by up to MaxFailures link failures). The last three are
	// residue for the tier and the modular step: the solver answers them.
	Check string
	// Src is the source router for per-source properties; Srcs the
	// source set for the -all / equal-lengths forms, the edge routers of
	// drops-at-edge and the router pair of equivalence.
	Src  string
	Srcs []string
	// Via is the waypoint router.
	Via string
	// Subnet is the destination restriction (properties.DstIn); HasSubnet
	// distinguishes the whole-space queries (loops, blackholes, ...).
	Subnet    network.Prefix
	HasSubnet bool
	// Hops bounds path length for bounded-length.
	Hops int
	// MaxLen is the no-leak export-length bound.
	MaxLen int
	// MaxFailures is the environment's link-failure budget (0 = the
	// NoFailures assumption). Definitive *verified* verdicts from the
	// deterministic path require 0; over-approximation verdicts and
	// falsifications are sound for any budget.
	MaxFailures int
}

// Sources returns the goal's source routers (single or multi form).
func (g Goal) Sources() []string {
	if len(g.Srcs) > 0 {
		return g.Srcs
	}
	if g.Src != "" {
		return []string{g.Src}
	}
	return nil
}

// Outcome is the tier's answer for one goal. Decided=false is residue:
// the analysis was not sound (or not precise enough) for this goal and
// the SAT path must answer it.
type Outcome struct {
	// Decided is true when the tier returns a definitive verdict.
	Decided bool
	// Verified is the verdict when Decided.
	Verified bool
	// Reason names the decision rule (or, for residue, why the goal fell
	// through) — surfaced in telemetry.
	Reason string
	// Blame lists the configuration origins the verdict depends on, in
	// the same vocabulary as the SAT path's UNSAT-core / counterexample
	// blame.
	Blame []provenance.Origin
	// Packet and Env witness a falsified verdict: a concrete stable
	// state (the simulator's fixpoint under Env — the empty environment,
	// or, outside the deterministic fragment, one peer's announcement) in
	// which the property fails. Both are nil on verified or residue
	// outcomes.
	Packet *config.Packet
	Env    *simulator.Environment
}

func verified(reason string, blame []provenance.Origin) Outcome {
	return Outcome{Decided: true, Verified: true, Reason: reason, Blame: blame}
}

func falsified(reason string, blame []provenance.Origin, pkt config.Packet, env *simulator.Environment) Outcome {
	return Outcome{Decided: true, Verified: false, Reason: reason, Blame: blame, Packet: &pkt, Env: env}
}

func residue(reason string) Outcome { return Outcome{Reason: reason} }

// Rule names the decision rule behind a decided outcome: "stable-state"
// (the deterministic path), "may-graph", "simulated" (simulated
// falsification) or "vacuity"; "" for residue.
func (o Outcome) Rule() string {
	switch {
	case !o.Decided:
		return ""
	case o.Reason == ReasonSimulated:
		return "simulated"
	case o.Reason == "stable-state", o.Reason == "stable-state-violation", strings.HasPrefix(o.Reason, "mgmt-unreachable:"):
		return "stable-state"
	case strings.HasPrefix(o.Reason, "may-unreachable"), o.Reason == "cannot-avoid-waypoint":
		return "may-graph"
	}
	return "vacuity"
}

// Synthesize renders a decided outcome as a core.Result so fast-path
// verdicts flow through the same reporting paths (service verdicts, CLI
// JSON, bench rows) as SAT verdicts. ledger is the goal ledger the caller
// charged the decision to (phase "fastpath"); the result's times are read
// from it. Falsified outcomes carry a counterexample with a nil
// Assignment: the packet and environment are concrete, but there is no
// SAT model to decode symbolic state from.
func Synthesize(out Outcome, ledger *cost.Node, blame bool) *core.Result {
	res := &core.Result{Verified: out.Verified, Tier: TierGraph, Cost: ledger}
	res.FillTimes()
	if blame {
		res.Blame = out.Blame
	}
	if !out.Verified {
		env := out.Env
		if env == nil {
			env = simulator.NewEnvironment()
		}
		var pkt config.Packet
		if out.Packet != nil {
			pkt = *out.Packet
		}
		res.Counterexample = &core.Counterexample{Packet: pkt, Env: env}
	}
	return res
}

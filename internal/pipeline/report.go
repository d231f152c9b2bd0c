package pipeline

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs/cost"
	"repro/internal/provenance"
)

// Report is the JSON rendering of a verdict: the object minesweeper
// -json prints and the body of a minesweeperd verdict (service.Verdict
// embeds it and adds the job's id and cache/budget state).
type Report struct {
	Check    string `json:"check"`
	Verified bool   `json:"verified"`
	// Tier names the verification tier that answered when the query ran
	// tiered: "graph" for the fast path, "sat" for solver fall-through;
	// absent with the tier off. FastPathMs is the graph tier's
	// classification time — the whole cost of a hit, overhead otherwise.
	Tier       string  `json:"tier,omitempty"`
	FastPathMs float64 `json:"fastpath_ms,omitempty"`
	// ElapsedMs is summed after per-phase rounding, so the fields keep the
	// exact identity elapsed = fastpath + encode + simplify + probe +
	// solve + certify.
	ElapsedMs  float64 `json:"elapsed_ms"`
	EncodeMs   float64 `json:"encode_ms"`
	SimplifyMs float64 `json:"simplify_ms"`
	// Probe is the witness probe's outcome (core.Result.Probe) and
	// ProbeMs its phase; absent when no probe ran.
	Probe      string  `json:"probe,omitempty"`
	ProbeMs    float64 `json:"probe_ms,omitempty"`
	SolveMs    float64 `json:"solve_ms"`
	CertifyMs  float64 `json:"certify_ms,omitempty"`
	SATVars    int     `json:"sat_vars,omitempty"`
	SATClauses int     `json:"sat_clauses,omitempty"`

	// Modular composition detail (Options.Modular). Mode is "modular"
	// when the composed component verdict stands, "monolithic" when the
	// network is a single component, and "fallback" when residue forced
	// the whole-network solve (ModularResidue names why; ViolatedContract
	// names the interface contract a failed discharge blamed, when there
	// is one).
	Mode             string   `json:"mode,omitempty"`
	Components       int      `json:"components,omitempty"`
	ComponentClasses int      `json:"component_classes,omitempty"`
	AliasHits        int      `json:"alias_hits,omitempty"`
	ComponentChecks  int      `json:"component_checks,omitempty"`
	PeakTerms        int      `json:"peak_terms,omitempty"`
	ModularResidue   []string `json:"modular_residue,omitempty"`
	ViolatedContract string   `json:"violated_contract,omitempty"`

	// Blame is the configuration origins the verdict depends on, as
	// "router/proto/kind name" strings (Options.Core.Blame): for a
	// verified query the origins in the UNSAT core, for a falsified one
	// the origins fixing the counterexample's forwarding decisions.
	Blame []string `json:"blame,omitempty"`

	Solver         *SolverStats    `json:"solver,omitempty"`
	Proof          *ProofInfo      `json:"proof,omitempty"`
	Counterexample *Counterexample `json:"counterexample,omitempty"`
	// Difference says where the routers of a falsified equivalence
	// check diverge (Verdict.Difference).
	Difference string `json:"difference,omitempty"`

	// Cost is the verdict's resource ledger (core.Result.Cost): per-phase
	// work units, clause-db/proof bytes and wall/CPU time, each node's
	// work equal to its self work plus its children's. A composed modular
	// verdict's holds one "class:N" subtree of phases per solved class;
	// every time above is read from it.
	Cost *cost.Node `json:"cost,omitempty"`
}

// ProofInfo summarizes the checked DRAT certificate of a verified
// verdict (present only with certification on).
type ProofInfo struct {
	Checked   bool `json:"checked"`
	Steps     int  `json:"steps"`
	Inputs    int  `json:"inputs"`
	Lemmas    int  `json:"lemmas"`
	Deletions int  `json:"deletions"`
	// Hinted lemmas were verified from the antecedents the solver
	// recorded, Fallbacks by searching the whole clause database.
	Hinted    int     `json:"hinted"`
	Fallbacks int     `json:"fallbacks"`
	CheckMs   float64 `json:"check_ms"`
}

// SolverStats is the query's CDCL work (deltas for session checks, not
// the session's cumulative counters).
type SolverStats struct {
	Conflicts    int64 `json:"conflicts"`
	Decisions    int64 `json:"decisions"`
	Propagations int64 `json:"propagations"`
	Learned      int64 `json:"learned"`
	Restarts     int64 `json:"restarts"`
}

// Packet is the violating packet of a counterexample.
type Packet struct {
	DstIP    string `json:"dst_ip"`
	SrcIP    string `json:"src_ip"`
	Protocol int    `json:"protocol"`
	SrcPort  int    `json:"src_port"`
	DstPort  int    `json:"dst_port"`
}

// Announcement is one external BGP announcement of the environment.
type Announcement struct {
	Peer        string   `json:"peer"`
	Prefix      string   `json:"prefix"`
	PathLen     int      `json:"path_len"`
	MED         int      `json:"med"`
	Communities []string `json:"communities,omitempty"`
}

// Counterexample is a concrete stable state violating the property.
// ReplayAgrees/ReplayDiffs are filled by the CLI's -replay.
type Counterexample struct {
	Packet        Packet         `json:"packet"`
	Announcements []Announcement `json:"announcements"`
	FailedLinks   []string       `json:"failed_links"`
	Forwarding    []string       `json:"forwarding,omitempty"`
	ReplayAgrees  *bool          `json:"replay_agrees,omitempty"`
	ReplayDiffs   []string       `json:"replay_diffs,omitempty"`
}

func durMs(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// NewReport renders a decided verdict (v.Result non-nil). Decoding the
// forwarding state reads v.Model, so callers sharing a live model render
// while they still hold it.
func NewReport(check string, v *Verdict) *Report {
	res := v.Result
	r := &Report{
		Check:      check,
		Verified:   res.Verified,
		Tier:       res.Tier,
		FastPathMs: durMs(res.FastPathElapsed),
		EncodeMs:   durMs(res.EncodeElapsed),
		SimplifyMs: durMs(res.SimplifyElapsed),
		Probe:      res.Probe,
		ProbeMs:    durMs(res.ProbeElapsed),
		SolveMs:    durMs(res.SolveElapsed),
		CertifyMs:  durMs(res.CertifyElapsed),
		SATVars:    res.SATVars,
		SATClauses: res.SATClauses,
		Blame:      provenance.Strings(res.Blame),
		Cost:       res.Cost,
		Mode:       v.Mode,
		Difference: v.Difference,
	}
	r.ElapsedMs = r.FastPathMs + r.EncodeMs + r.SimplifyMs + r.ProbeMs + r.SolveMs + r.CertifyMs
	if res.SATVars > 0 {
		// Otherwise no solver ran (the graph tier, an equivalence sweep
		// whose terms folded to constants): no all-zero CDCL stats block.
		r.Solver = &SolverStats{
			Conflicts:    res.Stats.Conflicts,
			Decisions:    res.Stats.Decisions,
			Propagations: res.Stats.Propagations,
			Learned:      res.Stats.Learned,
			Restarts:     res.Stats.Restarts,
		}
	}
	if v.Mode == ModeFallback {
		r.ModularResidue, r.ViolatedContract = v.Residue, v.Violated
	}
	if mr := v.Modular; mr != nil && v.Mode == ModeModular {
		r.Components, r.ComponentClasses = mr.Components, mr.Classes
		r.AliasHits, r.ComponentChecks, r.PeakTerms = mr.AliasHits, mr.Checks, mr.PeakTerms
	}
	if cert := res.Certificate; cert != nil {
		r.Proof = &ProofInfo{
			Checked: cert.Checked, Steps: cert.Steps,
			Inputs: cert.Inputs, Lemmas: cert.Lemmas, Deletions: cert.Deletions,
			Hinted: cert.Hinted, Fallbacks: cert.Fallbacks,
			CheckMs: durMs(res.CertifyElapsed),
		}
	}
	if res.Counterexample != nil {
		r.Counterexample = newCounterexample(res.Counterexample, v.Model)
	}
	return r
}

func newCounterexample(cex *core.Counterexample, m *core.Model) *Counterexample {
	jc := &Counterexample{
		Packet: Packet{
			DstIP:    cex.Packet.DstIP.String(),
			SrcIP:    cex.Packet.SrcIP.String(),
			Protocol: cex.Packet.Protocol,
			SrcPort:  cex.Packet.SrcPort,
			DstPort:  cex.Packet.DstPort,
		},
		Announcements: []Announcement{},
		FailedLinks:   []string{},
	}
	peers := make([]string, 0, len(cex.Env.Anns))
	for p := range cex.Env.Anns {
		peers = append(peers, p)
	}
	sort.Strings(peers)
	for _, p := range peers {
		a := cex.Env.Anns[p]
		jc.Announcements = append(jc.Announcements, Announcement{
			Peer: p, Prefix: a.Prefix.String(),
			PathLen: a.PathLen, MED: a.MED, Communities: a.Communities,
		})
	}
	for id := range cex.Env.FailedLinks {
		jc.FailedLinks = append(jc.FailedLinks, id)
	}
	sort.Strings(jc.FailedLinks)
	// Graph-tier counterexamples carry no SAT assignment (and no model is
	// in scope); forwarding decoding is solver-only detail.
	if m != nil && cex.Assignment != nil {
		jc.Forwarding = m.DecodeForwarding(m.Main, cex.Assignment)
	}
	return jc
}

package service

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs/cost"
	"repro/internal/provenance"
	"repro/internal/tiered"
)

// Verdict is the JSON answer to one verification job. It mirrors the
// minesweeper CLI's -json report: verdict, phase timings, formula sizes,
// solver work and the decoded counterexample.
type Verdict struct {
	JobID    string `json:"job_id"`
	Check    string `json:"check"`
	Verified bool   `json:"verified"`
	// Cached is true when the verdict was answered from the result
	// cache without touching the solver.
	Cached bool `json:"cached"`
	// Tier names the verification tier that produced the verdict when
	// the engine runs tiered: "graph" for the fast path, "sat" for
	// solver fall-through; absent when tiering is disabled.
	Tier string `json:"tier,omitempty"`
	// FastPathMs is the graph tier's classification time (the whole
	// verdict cost on a fast-path hit, pure overhead on fall-through).
	FastPathMs float64 `json:"fastpath_ms,omitempty"`
	ElapsedMs  float64 `json:"elapsed_ms"`
	EncodeMs   float64 `json:"encode_ms"`
	SimplifyMs float64 `json:"simplify_ms"`
	SolveMs    float64 `json:"solve_ms"`
	CertifyMs  float64 `json:"certify_ms,omitempty"`
	SATVars    int     `json:"sat_vars,omitempty"`
	SATClauses int     `json:"sat_clauses,omitempty"`

	// Modular composition detail (engine Options.Modular). Mode is
	// "modular" when the composed component verdict stands, "monolithic"
	// when the goal or network is outside the modular vocabulary, and
	// "fallback" when residue forced the whole-network pipeline (the
	// residue names why; ViolatedContract names the interface contract a
	// failed discharge blamed, when there is one).
	Mode             string   `json:"mode,omitempty"`
	Components       int      `json:"components,omitempty"`
	ComponentClasses int      `json:"component_classes,omitempty"`
	AliasHits        int      `json:"alias_hits,omitempty"`
	ModularResidue   []string `json:"modular_residue,omitempty"`
	ViolatedContract string   `json:"violated_contract,omitempty"`

	// Blame is the configuration origins the verdict depends on, as
	// "router/proto/kind name" strings (engine Options.Blame): for a
	// verified job the origins in the UNSAT core, for a falsified job the
	// origins fixing the counterexample's forwarding decisions.
	Blame []string `json:"blame,omitempty"`

	Solver         *SolverStats    `json:"solver,omitempty"`
	Proof          *ProofInfo      `json:"proof,omitempty"`
	Counterexample *Counterexample `json:"counterexample,omitempty"`

	// Cost is the job's hierarchical resource ledger (job → goal → phase
	// / racer / class), served standalone at GET /v1/jobs/{id}/cost.
	// Cached verdicts carry no ledger: the work was paid by the original
	// job, a cache hit costs nothing worth gating on.
	Cost *cost.Node `json:"cost,omitempty"`

	// Budget is present exactly when the job was cancelled for exceeding
	// a service budget (Options.WorkBudget / Options.MemBudgetBytes); the
	// verdict is then neither verified nor falsified — the search was cut
	// short — and Verified is false.
	Budget *BudgetInfo `json:"budget_exceeded,omitempty"`
}

// ProofInfo summarizes the checked DRAT certificate of a verified
// verdict (present only when the engine runs with Options.Certify).
type ProofInfo struct {
	Checked bool `json:"checked"`
	Steps   int  `json:"steps"`
	Lemmas  int  `json:"lemmas"`
	// Hinted lemmas were verified from the antecedents the solver
	// recorded, Fallbacks by searching the whole clause database.
	Hinted    int     `json:"hinted"`
	Fallbacks int     `json:"fallbacks"`
	CheckMs   float64 `json:"check_ms"`
}

// SolverStats is the per-check CDCL work (deltas for session checks, not
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
type Counterexample struct {
	Packet        Packet         `json:"packet"`
	Announcements []Announcement `json:"announcements"`
	FailedLinks   []string       `json:"failed_links"`
	Forwarding    []string       `json:"forwarding,omitempty"`
}

func durMs(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// newVerdict renders a core result as the service's JSON verdict. The
// caller must hold the network entry's lock: decoding forwarding state
// reads the model.
func newVerdict(jobID string, spec Spec, res *core.Result, m *core.Model) *Verdict {
	v := &Verdict{
		JobID:      jobID,
		Check:      spec.Check,
		Verified:   res.Verified,
		EncodeMs:   durMs(res.EncodeElapsed),
		SimplifyMs: durMs(res.SimplifyElapsed),
		SolveMs:    durMs(res.SolveElapsed),
		CertifyMs:  durMs(res.CertifyElapsed),
		SATVars:    res.SATVars,
		SATClauses: res.SATClauses,
		Solver: &SolverStats{
			Conflicts:    res.Stats.Conflicts,
			Decisions:    res.Stats.Decisions,
			Propagations: res.Stats.Propagations,
			Learned:      res.Stats.Learned,
			Restarts:     res.Stats.Restarts,
		},
	}
	v.Tier = res.Tier
	v.FastPathMs = durMs(res.FastPathElapsed)
	if res.Tier == tiered.TierGraph {
		// The solver never ran: drop the all-zero CDCL stats block.
		v.Solver = nil
	}
	// Summed after per-phase rounding so the JSON fields keep the exact
	// identity elapsed = fastpath + encode + simplify + solve + certify
	// (fastpath is zero unless the engine runs tiered).
	v.ElapsedMs = v.FastPathMs + v.EncodeMs + v.SimplifyMs + v.SolveMs + v.CertifyMs
	v.Blame = provenance.Strings(res.Blame)
	if len(v.Blame) == 0 {
		v.Blame = nil
	}
	if cert := res.Certificate; cert != nil {
		v.Proof = &ProofInfo{
			Checked:   cert.Checked,
			Steps:     cert.Steps,
			Lemmas:    cert.Lemmas,
			Hinted:    cert.Hinted,
			Fallbacks: cert.Fallbacks,
			CheckMs:   durMs(cert.CheckElapsed),
		}
	}
	cex := res.Counterexample
	if cex == nil {
		return v
	}
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
	// Graph-tier counterexamples carry no SAT assignment (and no model may
	// be in scope); forwarding decoding is solver-only detail.
	if m != nil && cex.Assignment != nil {
		jc.Forwarding = m.DecodeForwarding(m.Main, cex.Assignment)
	}
	v.Counterexample = jc
	return v
}

// cachedCopy stamps a cached verdict for a new job: same answer, new job
// id, Cached set.
func (v *Verdict) cachedCopy(jobID string) *Verdict {
	out := *v
	out.JobID = jobID
	out.Cached = true
	// Like origin profiles, the cost ledger stays with the job that paid
	// it; a cache hit never touched the solver.
	out.Cost = nil
	return &out
}

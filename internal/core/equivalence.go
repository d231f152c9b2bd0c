package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/config"
	"repro/internal/protograph"
	"repro/internal/provenance"
	"repro/internal/sat"
	"repro/internal/smt"
)

// sessionDesc is the sort key used to pair up sessions of two routers for
// local equivalence: sessions are matched by kind and remote AS, in order.
type sessionDesc struct {
	kind protograph.BGPSessionKind
	asn  uint32
	sess *protograph.BGPSession
}

func sessionDescsOf(g *protograph.Graph, n string) []sessionDesc {
	node := g.Topo.Node(n)
	var out []sessionDesc
	for _, s := range g.SessionsOf(node) {
		d := sessionDesc{kind: s.Kind, sess: s}
		if s.Kind == protograph.EBGPExternal {
			d.asn = s.Ext.ASN
		} else {
			d.asn = g.Configs[s.RemoteEnd(node).Name].BGP.ASN
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].kind != out[j].kind {
			return out[i].kind < out[j].kind
		}
		return out[i].asn < out[j].asn
	})
	return out
}

// sameShape reports whether two session descriptors can be paired for the
// equivalence check: same kind. Remote AS numbers are allowed to differ —
// two spine routers in a fabric peer with different routers but must
// still apply equivalent policy.
func sameShape(a, b sessionDesc) bool { return a.kind == b.kind }

// LocalEquivalenceResult reports whether two routers in the same role are
// behaviourally equivalent, and if not, where they diverge.
type LocalEquivalenceResult struct {
	Equivalent bool
	// Difference describes the first divergence found.
	Difference string
	// Stats, SATVars and SATClauses sum the sweep's solver queries.
	// Certificate sums the checked proofs of their UNSAT answers when
	// Options ask for a proof (Certify, Blame); nil otherwise, or when no
	// UNSAT answer came from a solver.
	Stats               sat.Stats
	SATVars, SATClauses int
	Certificate         *Certificate
}

// CheckLocalEquivalence decides whether two routers treat equal inputs
// equally (§5, local equivalence): given pairwise-equal peer
// advertisements their import filters must produce equal records, their
// export filters must produce equal exports, and their interface ACLs
// must make the same packet decisions. Sessions are paired by (kind,
// remote AS) in sorted order; a peer-count mismatch is a difference.
func CheckLocalEquivalence(g *protograph.Graph, a, b string, opts Options) (*LocalEquivalenceResult, error) {
	return CheckLocalEquivalenceContext(context.Background(), g, a, b, opts)
}

// CheckLocalEquivalenceContext is CheckLocalEquivalence with
// cancellation: a done ctx interrupts the sweep's solver queries, and its
// error is returned. Options' progress hook observes the sweep as one
// check, its work counted from the sweep's start.
func CheckLocalEquivalenceContext(ctx context.Context, g *protograph.Graph, a, b string, opts Options) (*LocalEquivalenceResult, error) {
	ca, cb := g.Configs[a], g.Configs[b]
	if ca == nil || cb == nil {
		return nil, fmt.Errorf("core: unknown router %q or %q", a, b)
	}
	sa, sb := sessionDescsOf(g, a), sessionDescsOf(g, b)
	res := &LocalEquivalenceResult{}
	if len(sa) != len(sb) {
		return res.differ(nil, "%s has %d BGP sessions, %s has %d", a, len(sa), b, len(sb))
	}

	// A miniature model: a shared symbolic destination and one symbolic
	// input record per session pair, fed through both routers' filters.
	opts.KeepAllCommunities = true
	m := &Model{Ctx: smt.NewContext(), G: g, Opts: opts}
	if err := m.analyze(); err != nil {
		return nil, err
	}
	c := m.Ctx
	q := &sweep{ctx: ctx, m: m, res: res}
	dst := c.BVVar("eq.dstIP", WidthIP)
	sl := &Slice{Name: "eq", DstIP: dst}
	for i := range sa {
		if !sameShape(sa[i], sb[i]) {
			return res.differ(nil, "session %d differs: %s vs %s", i, describeSession(sa[i]), describeSession(sb[i]))
		}
		in := m.recVar(fmt.Sprintf("eq|in%d", i), true, uint64(20))
		stanzaA := sa[i].sess.StanzaOf(g.Topo.Node(a))
		stanzaB := sb[i].sess.StanzaOf(g.Topo.Node(b))
		outA, outB := in, in
		if stanzaA.InMap != "" {
			outA = m.applyRouteMap(sl, ca, stanzaA.InMap, in)
		}
		if stanzaB.InMap != "" {
			outB = m.applyRouteMap(sl, cb, stanzaB.InMap, in)
		}
		if diff, err := q.recordsDiffer(outA, outB); err != nil || diff != "" {
			return res.differ(err, "import policy for session %d (%s): %s", i, describeSession(sa[i]), diff)
		}
		// Export direction: a symbolic best record through each OutMap.
		best := m.recVar(fmt.Sprintf("eq|best%d", i), true, uint64(20))
		expA, expB := best, best
		if stanzaA.OutMap != "" {
			expA = m.applyRouteMap(sl, ca, stanzaA.OutMap, best)
		}
		if stanzaB.OutMap != "" {
			expB = m.applyRouteMap(sl, cb, stanzaB.OutMap, best)
		}
		if diff, err := q.recordsDiffer(expA, expB); err != nil || diff != "" {
			return res.differ(err, "export policy for session %d (%s): %s", i, describeSession(sa[i]), diff)
		}
	}

	// Data-plane behaviour: paired interfaces (sorted by name) must make
	// the same ACL decisions on a symbolic packet.
	pkt := pktFields{
		src:   c.BVVar("eq.src", WidthIP),
		dst:   dst,
		sport: c.BVVar("eq.sport", 16),
		dport: c.BVVar("eq.dport", 16),
		proto: c.BVVar("eq.proto", 8),
	}
	ifA, ifB := sortedIfaces(ca), sortedIfaces(cb)
	if len(ifA) != len(ifB) {
		return res.differ(nil, "%s has %d interfaces, %s has %d", a, len(ifA), b, len(ifB))
	}
	for i := range ifA {
		for _, inbound := range []bool{true, false} {
			pa := m.aclPermits(ca, ifA[i], inbound, pkt)
			pb := m.aclPermits(cb, ifB[i], inbound, pkt)
			if d, err := q.differs(pa, pb); err != nil || d {
				dir := "out"
				if inbound {
					dir = "in"
				}
				return res.differ(err, "ACL behaviour differs on %s/%s vs %s/%s (%s)", a, ifA[i], b, ifB[i], dir)
			}
		}
	}
	res.Equivalent = true
	return res, nil
}

// differ is the sweep's answer on finding a divergence, or err.
func (r *LocalEquivalenceResult) differ(err error, format string, a ...any) (*LocalEquivalenceResult, error) {
	if err != nil {
		return nil, err
	}
	r.Difference = fmt.Sprintf(format, a...)
	return r, nil
}

func describeSession(d sessionDesc) string {
	switch d.kind {
	case protograph.EBGPExternal:
		return "external AS " + fmt.Sprint(d.asn)
	case protograph.IBGP:
		return "iBGP"
	default:
		return "eBGP AS " + fmt.Sprint(d.asn)
	}
}

func sortedIfaces(c *config.Router) []string {
	out := make([]string, 0, len(c.Interfaces))
	for _, i := range c.Interfaces {
		out = append(out, i.Name)
	}
	sort.Strings(out)
	return out
}

// sweep answers the local-equivalence sweep's solver queries and sums
// what they did into res.
type sweep struct {
	ctx context.Context
	m   *Model
	res *LocalEquivalenceResult
}

// recordsDiffer checks satisfiability of "the two derived records differ"
// and describes the differing field.
func (q *sweep) recordsDiffer(a, b *Record) (string, error) {
	c := q.m.Ctx
	type field struct {
		name string
		t    *smt.Term
	}
	fields := []field{
		{"validity", c.Eq(a.Valid, b.Valid)},
		{"local-preference", c.Implies(c.And(a.Valid, b.Valid), c.Eq(a.LocalPref, b.LocalPref))},
		{"metric", c.Implies(c.And(a.Valid, b.Valid), c.Eq(a.Metric, b.Metric))},
		{"MED", c.Implies(c.And(a.Valid, b.Valid), c.Eq(a.MED, b.MED))},
	}
	for _, cm := range sortedCommKeys(a.Comms) {
		if bBit, ok := b.Comms[cm]; ok {
			fields = append(fields, field{"community " + cm,
				c.Implies(c.And(a.Valid, b.Valid), c.Eq(a.Comms[cm], bBit))})
		}
	}
	for _, f := range fields {
		if d, err := q.differs(f.t, c.True()); err != nil || d {
			return f.name, err
		}
	}
	return "", nil
}

func sortedCommKeys(m map[string]*smt.Term) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// differs checks whether two boolean terms can disagree, or returns ctx's
// error once it is done. A fresh solver per query keeps queries
// independent; it is instrumented as Options ask, and an UNSAT answer
// with a recorded proof stands only once the proof is checked.
func (q *sweep) differs(a, b *smt.Term) (bool, error) {
	if err := q.ctx.Err(); err != nil {
		return false, err
	}
	c := q.m.Ctx
	d := c.Distinct(a, b)
	if d == c.False() {
		return false, nil
	}
	if d == c.True() {
		return true, nil
	}
	sol := smt.NewSolver(c)
	proof, chk := q.m.instrument(sol)
	sol.Assert(d)
	// The sweep is one check: its progress counts from the sweep's start,
	// where this fresh solver's counters stood at minus r.Stats.
	st, r := sol.SAT(), q.res
	status, err := solve(q.ctx, st, &q.m.Opts, sat.Stats{}.Since(r.Stats))
	r.Stats = r.Stats.Plus(st.Stats)
	if err != nil {
		return false, err
	}
	r.SATVars += st.NumVars()
	r.SATClauses += st.NumClauses()
	if status == sat.Sat || proof == nil {
		return status == sat.Sat, nil
	}
	cert, _, err := certify(nil, chk, proof)
	if err != nil {
		return false, err
	}
	r.Certificate = r.Certificate.plus(cert)
	return false, nil
}

// EquivPair is two network copies encoded in one context, the substrate
// for full equivalence and fault-invariance checking (§5).
type EquivPair struct {
	Ctx  *smt.Context
	A, B *Model
}

// EncodePair encodes the two graphs under one context with linked
// symbolic packets.
func EncodePair(ga, gb *protograph.Graph, opts Options) (*EquivPair, error) {
	ctx := smt.NewContext()
	ma, err := encodeWithContext(ga, opts, ctx, "A|")
	if err != nil {
		return nil, err
	}
	mb, err := encodeWithContext(gb, opts, ctx, "B|")
	if err != nil {
		return nil, err
	}
	// Same packet in both copies.
	ma.assert(ctx.Eq(ma.DstIP, mb.DstIP))
	ma.assert(ctx.Eq(ma.SrcIP, mb.SrcIP))
	ma.assert(ctx.Eq(ma.SrcPort, mb.SrcPort))
	ma.assert(ctx.Eq(ma.DstPort, mb.DstPort))
	ma.assert(ctx.Eq(ma.IPProto, mb.IPProto))
	return &EquivPair{Ctx: ctx, A: ma, B: mb}, nil
}

// LinkEnvironments constrains the two copies to see identical external
// announcements (matched by peer name). Returns an error if the peer sets
// differ. Peers are linked in topology order and communities in name
// order, so the pair's asserts, and with them its CNF and search, are the
// same on every run.
func (p *EquivPair) LinkEnvironments() error {
	c := p.Ctx
	for _, e := range p.A.G.Topo.Externals {
		ra := p.A.Main.Env[e.Name]
		rb, ok := p.B.Main.Env[e.Name]
		if !ok {
			return fmt.Errorf("core: external peer %q missing in second network", e.Name)
		}
		p.A.assert(c.Eq(ra.Valid, rb.Valid))
		p.A.assert(c.Eq(ra.PrefixLen, rb.PrefixLen))
		p.A.assert(c.Eq(ra.Metric, rb.Metric))
		p.A.assert(c.Eq(ra.MED, rb.MED))
		for _, cm := range sortedCommKeys(ra.Comms) {
			if bitB, ok := rb.Comms[cm]; ok {
				p.A.assert(c.Eq(ra.Comms[cm], bitB))
			}
		}
	}
	for name := range p.B.Main.Env {
		if _, ok := p.A.Main.Env[name]; !ok {
			return fmt.Errorf("core: external peer %q missing in first network", name)
		}
	}
	return nil
}

// LinkFailures constrains both copies to the same link failures (matched
// by canonical id).
func (p *EquivPair) LinkFailures() {
	c := p.Ctx
	for id, fa := range p.A.Failed {
		if fb, ok := p.B.Failed[id]; ok {
			p.A.assert(c.Eq(fa, fb))
		}
	}
}

// FullEquivalence returns the property that both copies make identical
// data-plane decisions and identical exports to external peers.
func (p *EquivPair) FullEquivalence() *smt.Term {
	c := p.Ctx
	out := c.True()
	for _, n := range p.A.G.Topo.Nodes {
		fa := p.A.Main.DataFwd[n.Name]
		fb := p.B.Main.DataFwd[n.Name]
		for _, h := range sortedHops(fa) {
			if tb, ok := fb[h]; ok {
				out = c.And(out, c.Eq(fa[h], tb))
			}
		}
		out = c.And(out, c.Eq(p.A.Main.DeliveredLocal[n.Name], p.B.Main.DeliveredLocal[n.Name]))
	}
	for name, ra := range p.A.Main.ExtExports {
		if rb, ok := p.B.Main.ExtExports[name]; ok {
			out = c.And(out,
				c.Eq(ra.Valid, rb.Valid),
				c.Implies(c.And(ra.Valid, rb.Valid),
					c.And(c.Eq(ra.PrefixLen, rb.PrefixLen), c.Eq(ra.Metric, rb.Metric))))
		}
	}
	return out
}

// FaultInvariance builds the §5 fault-invariance check for one network:
// copy A runs failure-free, copy B with at most k failures, identical
// environments, and the property is that every router's reachability is
// unchanged.
func FaultInvariance(g *protograph.Graph, opts Options, k int) (*EquivPair, *smt.Term, error) {
	p, err := EncodePair(g, g, opts)
	if err != nil {
		return nil, nil, err
	}
	if err := p.LinkEnvironments(); err != nil {
		return nil, nil, err
	}
	c := p.Ctx
	p.A.assert(p.A.NoFailures())
	p.A.assert(p.B.AtMostFailures(k))
	reachA := p.A.Reach(p.A.Main, true)
	reachB := p.B.Reach(p.B.Main, true)
	prop := c.True()
	for _, n := range g.Topo.Nodes {
		prop = c.And(prop, c.Iff(reachA[n.Name], reachB[n.Name]))
	}
	return p, prop, nil
}

// Check decides a property over the pair (both copies' constraints are
// asserted) through Model.CheckGoal on the first copy, interruptible
// through ctx like it.
// Counterexamples merge both copies' environments: failed links of the
// second copy are tagged "B:".
func (p *EquivPair) Check(ctx context.Context, property *smt.Term, assumptions ...*smt.Term) (*Result, error) {
	all := append([]*smt.Term{}, p.B.Asserts...)
	saved := p.A.Asserts
	savedOrigins := p.A.AssertOrigins
	p.A.Asserts = append(append([]*smt.Term{}, saved...), all...)
	p.A.AssertOrigins = append(append([]provenance.Origin{}, savedOrigins...), p.B.AssertOrigins...)
	res, err := p.A.CheckGoal(ctx, nil, property, assumptions...)
	p.A.Asserts = saved
	p.A.AssertOrigins = savedOrigins
	if err == nil && res.Counterexample != nil {
		bEnv := p.B.Decode(res.Counterexample.Assignment).Env
		for id := range bEnv.FailedLinks {
			res.Counterexample.Env.FailedLinks["B:"+id] = true
		}
	}
	return res, err
}

package core

import (
	"fmt"
	"sort"

	"repro/internal/config"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/protograph"
	"repro/internal/provenance"
	"repro/internal/sat"
	"repro/internal/simulator"
	"repro/internal/smt"
)

// Options control the encoder's optimizations (§6) and the solver
// features of every check on the model. The zero value is the default:
// every optimization on, no proof logging.
type Options struct {
	// Passes selects the optimization pipeline by name: a comma-separated
	// subset of PassNames ("hoist,slice,propagate,coi"), or "all" /
	// "none". The empty string means "all". "hoist" is prefix elimination
	// plus loop-detection hoisting (§6.1), "slice" the removal and merging
	// of never-distinguished record variables (§6.2), "propagate" and
	// "coi" the two term passes of internal/smt/passes; the §8.3 ablation
	// benchmarks switch them off by listing the others.
	Passes string

	// KeepAllCommunities keeps a symbolic bit for every community in the
	// config universe even when it is never matched on; equivalence
	// properties need this.
	KeepAllCommunities bool

	// Certify records a DRAT proof trace while solving and validates it
	// with the in-process checker (internal/sat/drat) whenever a check
	// returns UNSAT, so every "verified" verdict carries a machine-checked
	// certificate (Result.Certificate). A rejected certificate turns the
	// check into an error — a soundness alarm, never a silent verdict.
	Certify bool

	// Blame reports which config stanzas a verdict depends on
	// (Result.Blame). For UNSAT it replays the DRAT proof (recording one
	// when Certify is off), extracts the unsatisfiable core and maps the
	// core's input clauses back to the encoder origins that emitted them;
	// for SAT it reports the origins of the constraints that fixed each
	// decoded forwarding decision.
	Blame bool

	// ProfileOrigins keeps per-origin solver work counters (conflicts,
	// propagations, learned clauses, LBD mass) and attaches the
	// aggregated hot-constraint profile to Result.OriginProfile.
	ProfileOrigins bool

	// Tiers selects the verification tiers attempted by callers that
	// orchestrate the graph fast path (internal/tiered) in front of the
	// solver: "graph,sat" (default when empty), "graph", "sat" or
	// "none". The encoder itself ignores the field — the tier runs at
	// the property boundary, where goals are still structured — but it
	// lives here so every entry point (service, CLI, harness) threads
	// one configuration object.
	Tiers string

	// Span, OnEvent, ProgressEvery and OnProgress observe, changing no
	// formula and no search. A check reads them from its model's options
	// when it begins, so assigning Model.Opts re-points a model.
	//
	// Span, when non-nil, is the parent under which Encode emits its
	// instrumentation spans and each check its per-query spans. A nil
	// span disables tracing at zero cost.
	Span *obs.Span
	// OnEvent is the per-check event sink: every phase a check or a
	// session set-up opens and closes (phase.start/phase.end), each pass,
	// certify.done and blame.done as they happen. It is called on the
	// checking goroutine; nil disables.
	OnEvent func(kind string, fields map[string]any)
	// ProgressEvery, when positive, makes each check call OnProgress, on
	// the checking goroutine, every ProgressEvery conflicts with the
	// solver's counters since the check began, the base Result.Stats
	// counts from.
	ProgressEvery int64
	OnProgress    func(sat.Progress)

	// Parallel is a tombstone. It selected a parallel solve engine that
	// was deleted after its trial (DESIGN §16); the repo benchmark, frozen
	// between benchmark PRs, still assigns "off". "" and "off" are
	// accepted, any other value is an error from Check, and nothing else
	// reads the field. It goes with that assignment.
	Parallel string
}

// DefaultOptions enables all optimizations: it is the zero value, kept
// as a function for the callers that read better with the name.
func DefaultOptions() Options { return Options{} }

// Hop is a forwarding target: an internal neighbor or an external peer.
type Hop struct {
	Node string
	Ext  string
}

func (h Hop) String() string {
	if h.Ext != "" {
		return "ext:" + h.Ext
	}
	return h.Node
}

// Slice is the encoding of the network for one destination: the main slice
// uses the symbolic packet destination, address slices use fixed
// infrastructure addresses for iBGP next-hop resolution (§4).
type Slice struct {
	Name  string
	DstIP *smt.Term

	// Env holds the raw environment record per external peer: what the
	// neighbor announces, unconstrained unless a property restricts it.
	Env map[string]*Record
	// ExtImports holds the post-import-filter record per external peer.
	ExtImports map[string]*Record
	// ExtExports holds the record each border router exports to each
	// external peer (for leak and equivalence checks).
	ExtExports map[string]*Record

	// BestProto and Best are the per-protocol and overall selected
	// records per router.
	BestProto map[string]map[config.Protocol]*Record
	Best      map[string]*Record

	// CtrlFwd and DataFwd are the forwarding indicators of §3(5)/(7).
	CtrlFwd map[string]map[Hop]*smt.Term
	DataFwd map[string]map[Hop]*smt.Term
	// DeliveredLocal marks local delivery onto a connected subnet;
	// DroppedNull marks a null0 drop.
	DeliveredLocal map[string]*smt.Term
	DroppedNull    map[string]*smt.Term

	// instrumented holds what each instrumentation builder (Reach,
	// ReachAvoiding, Tainted, PathLengths, ChainProgress) returned, by
	// builder and arguments; see instrumentOnce.
	instrumented map[string]any
}

// Model is the full symbolic network model N: assert everything in
// Asserts, add a negated property, and check satisfiability.
type Model struct {
	Ctx  *smt.Context
	G    *protograph.Graph
	Opts Options

	// Symbolic packet (Figure 3, data plane section).
	DstIP, SrcIP *smt.Term
	SrcPort      *smt.Term
	DstPort      *smt.Term
	IPProto      *smt.Term

	// Failed maps canonical link ids to failure bits (§5 fault
	// tolerance).
	Failed map[string]*smt.Term

	Main *Slice
	// Addr maps iBGP peering addresses to their network copies.
	Addr map[network.IP]*Slice
	// SessUp maps multihop iBGP sessions to their session-up bits.
	SessUp map[*protograph.BGPSession]*smt.Term

	// Asserts is the constraint system N. AssertOrigins runs parallel to
	// it: AssertOrigins[i] names the config stanza (or synthetic source)
	// that emitted Asserts[i]. Configs carry no line numbers, so the
	// granularity is the named stanza.
	Asserts       []*smt.Term
	AssertOrigins []provenance.Origin

	// Prov interns origins to the dense base ids carried by the pass
	// pipeline, the SAT solver and DRAT proof steps.
	Prov *provenance.Table

	// curOrigin is stamped onto every constraint assert() emits.
	curOrigin provenance.Origin

	mode       cmpMode
	commUni    []string
	commActive map[string]bool
	lpActive   bool
	medActive  bool
	ibgpActive bool
	rrActive   bool
	riskySet   map[string]bool
	risky      []string // sorted

	// NumRecordVars counts allocated symbolic record fields, a formula
	// size measure reported by the optimization benchmarks.
	NumRecordVars int

	// encSpan is the live "encode" span while encodeWithContext runs;
	// encodeSlice hangs its per-slice spans off it.
	encSpan *obs.Span

	// spec is Options.Passes resolved by analyze; hoisting/slicing cache
	// its encoding-time switches for the hot paths in slice.go.
	spec              passSpec
	hoisting, slicing bool

	// compiled caches the artifact of the last Compile; compiledLast is
	// the final assert it covered, so splice-and-restore callers (EquivPair)
	// invalidate the cache even when lengths match.
	compiled     *CompiledNetwork
	compiledLast *smt.Term
	compiles     int

	// prefix namespaces every variable, letting several network copies
	// share one context (full equivalence / fault-invariance, §5).
	prefix string

	// probeOff withholds the witness probe and probeSim replaces its
	// simulator; both are test seams (export_test.go), zero otherwise.
	probeOff bool
	probeSim func(network.IP, *simulator.Environment) (*simulator.Result, error)
}

// assert appends a constraint to N, recording the current origin in
// lockstep so provenance survives every later rewrite.
func (m *Model) assert(t *smt.Term) {
	m.Asserts = append(m.Asserts, t)
	m.AssertOrigins = append(m.AssertOrigins, m.curOrigin)
}

// setOrigin switches the origin stamped onto subsequent asserts and
// returns the previous one, for save/restore around nested encoders
// (route maps refine their caller's origin).
func (m *Model) setOrigin(o provenance.Origin) provenance.Origin {
	prev := m.curOrigin
	m.curOrigin = o
	return prev
}

// Encode translates the protocol graph into the symbolic model.
func Encode(g *protograph.Graph, opts Options) (*Model, error) {
	return encodeWithContext(g, opts, smt.NewContext(), "")
}

// encodeWithContext encodes into an existing context under a variable-name
// prefix, so several network copies can be combined in one formula (full
// equivalence and fault-invariance, §5).
func encodeWithContext(g *protograph.Graph, opts Options, ctx *smt.Context, prefix string) (*Model, error) {
	m := &Model{
		Ctx:    ctx,
		G:      g,
		Opts:   opts,
		Failed: map[string]*smt.Term{},
		Addr:   map[network.IP]*Slice{},
		SessUp: map[*protograph.BGPSession]*smt.Term{},
		Prov:   provenance.NewTable(),
		prefix: prefix,
	}
	sp := opts.Span.Start("encode")
	defer sp.End()
	m.encSpan = sp
	defer func() {
		sp.SetInt("terms", int64(ctx.NumTerms()))
		sp.SetInt("record_vars", int64(m.NumRecordVars))
		sp.SetInt("asserts", int64(len(m.Asserts)))
	}()

	asp := sp.Start("analyze")
	err := m.analyze()
	asp.End()
	if err != nil {
		return nil, err
	}
	c := m.Ctx

	// Symbolic packet.
	m.DstIP = c.BVVar(prefix+"pkt.dstIP", WidthIP)
	m.SrcIP = c.BVVar(prefix+"pkt.srcIP", WidthIP)
	m.SrcPort = c.BVVar(prefix+"pkt.srcPort", 16)
	m.DstPort = c.BVVar(prefix+"pkt.dstPort", 16)
	m.IPProto = c.BVVar(prefix+"pkt.proto", 8)

	// Link failure bits.
	for _, l := range g.Topo.Links {
		id := simulator.LinkID(l.A.Name, l.B.Name)
		m.Failed[id] = c.BoolVar(prefix + "failed|" + id)
	}
	for _, e := range g.Topo.Externals {
		id := simulator.ExtLinkID(e.Router.Name, e.Name)
		m.Failed[id] = c.BoolVar(prefix + "failed|" + id)
	}

	// Multihop iBGP sessions: session-up bits and address slices.
	var multihop []*protograph.BGPSession
	addrSet := map[network.IP]bool{}
	for _, s := range g.Sessions {
		if s.Kind == protograph.IBGP && s.Link == nil {
			multihop = append(multihop, s)
			addrSet[s.NbrAtA.Addr] = true
			addrSet[s.NbrAtB.Addr] = true
			m.SessUp[s] = c.BoolVar(fmt.Sprintf("%ssessUp|%s~%s", prefix, s.A.Name, s.B.Name))
		}
	}
	addrs := make([]network.IP, 0, len(addrSet))
	for a := range addrSet {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		sl, err := m.encodeSlice(prefix+"addr_"+a.String(), c.BV(uint64(a), WidthIP), true)
		if err != nil {
			return nil, err
		}
		m.Addr[a] = sl
	}
	// Gate each multihop session on mutual reachability of the peering
	// addresses in the corresponding copies.
	for _, s := range multihop {
		m.setOrigin(provenance.Origin{Proto: "bgp", Kind: "session", Name: s.A.Name + "~" + s.B.Name})
		reachAB := m.Reach(m.Addr[s.NbrAtA.Addr], false)[s.A.Name]
		reachBA := m.Reach(m.Addr[s.NbrAtB.Addr], false)[s.B.Name]
		m.assert(c.Iff(m.SessUp[s], c.And(reachAB, reachBA)))
	}
	m.setOrigin(provenance.Origin{})

	main, err := m.encodeSlice(prefix+"main", m.DstIP, false)
	if err != nil {
		return nil, err
	}
	m.Main = main
	return m, nil
}

// analyze computes the attribute-activity flags and the community universe
// (the field-slicing analysis of §6.2) and the loop-risk router set (the
// loop-detection hoisting of §6.1).
func (m *Model) analyze() error {
	spec, err := resolvePasses(m.Opts)
	if err != nil {
		return err
	}
	m.spec = spec
	m.hoisting, m.slicing = spec.hoist, spec.slice
	g := m.G
	commSet := map[string]bool{}
	m.commActive = map[string]bool{}
	m.riskySet = map[string]bool{}
	for _, c := range g.Configs {
		if c.BGP != nil && c.BGP.AlwaysCompareMED {
			m.mode.alwaysCompareMED = true
			m.medActive = true
		}
		for _, cl := range c.CommunityLists {
			for _, v := range cl.Values {
				commSet[v] = true
			}
		}
		for _, rm := range c.RouteMaps {
			for _, cl := range rm.Clauses {
				for _, v := range cl.SetCommunity {
					commSet[v] = true
				}
				if cl.SetLocalPref != 0 {
					m.lpActive = true
				}
				if cl.HasSetMED {
					m.medActive = true
				}
				if cl.MatchCommunity != "" {
					if l := c.CommunityLists[cl.MatchCommunity]; l != nil {
						for _, v := range l.Values {
							m.commActive[v] = true
						}
					}
				}
			}
		}
		// Redistribution of dynamic protocols can create policy loops.
		if c.RedistributesDynamic() {
			m.riskySet[c.Name] = true
		}
	}
	for _, s := range g.Sessions {
		if s.Kind == protograph.IBGP {
			m.ibgpActive = true
		}
		for _, pair := range []struct {
			n   *network.Node
			nbr *config.BGPNeighbor
		}{{s.A, s.NbrAtA}, {s.B, s.NbrAtB}} {
			if pair.nbr == nil {
				continue
			}
			if pair.nbr.RouteReflectorClient {
				m.rrActive = true
				// Route reflection can re-export iBGP routes, so
				// reflector meshes need loop bits (the paper handles
				// these "similarly to BGP", §4/§6.1).
				m.riskySet[pair.n.Name] = true
			}
		}
	}
	// Custom local preference on internal sessions defeats the
	// shortest-path loop argument (§6.1): mark such routers risky.
	if g.HasCustomLocalPref() {
		for _, s := range g.Sessions {
			if s.Kind == protograph.EBGPExternal {
				continue
			}
			for _, pair := range []struct {
				n   *network.Node
				nbr *config.BGPNeighbor
			}{{s.A, s.NbrAtA}, {s.B, s.NbrAtB}} {
				c := g.Configs[pair.n.Name]
				for _, mn := range []string{pair.nbr.InMap, pair.nbr.OutMap} {
					if mn == "" {
						continue
					}
					if rm := c.RouteMaps[mn]; rm != nil {
						for _, cl := range rm.Clauses {
							if cl.SetLocalPref != 0 {
								m.riskySet[pair.n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	// MED comparison is possible when one router hears two sessions from
	// the same neighbor AS.
	for _, n := range g.Topo.Nodes {
		asns := map[uint32]int{}
		for _, s := range g.SessionsOf(n) {
			switch {
			case s.Kind == protograph.EBGPExternal:
				asns[s.Ext.ASN]++
			case s.Kind == protograph.EBGP:
				asns[g.Configs[s.RemoteEnd(n).Name].BGP.ASN]++
			}
		}
		for _, cnt := range asns {
			if cnt > 1 {
				m.medActive = true
			}
		}
	}

	if !m.slicing {
		// Slicing off: every attribute stays symbolic.
		m.lpActive, m.medActive = true, true
		m.ibgpActive = m.ibgpActive || len(g.Sessions) > 0
		m.rrActive = m.rrActive || m.ibgpActive
		for v := range commSet {
			m.commActive[v] = true
		}
	}
	if !m.hoisting {
		// Loop-detection hoisting off: loop bits for every BGP router.
		for _, n := range g.Topo.Nodes {
			if g.Configs[n.Name].BGP != nil {
				m.riskySet[n.Name] = true
			}
		}
	}
	if m.Opts.KeepAllCommunities {
		for v := range commSet {
			m.commActive[v] = true
		}
	}
	m.commUni = make([]string, 0, len(commSet))
	for v := range commSet {
		m.commUni = append(m.commUni, v)
	}
	sort.Strings(m.commUni)
	m.risky = m.risky[:0]
	for r := range m.riskySet {
		m.risky = append(m.risky, r)
	}
	sort.Strings(m.risky)
	return nil
}

// activeComms returns the communities kept symbolic on records.
func (m *Model) activeComms() []string {
	var out []string
	for _, v := range m.commUni {
		if m.commActive[v] {
			out = append(out, v)
		}
	}
	return out
}

// inv returns the canonical invalid record with neutral constant fields.
func (m *Model) inv() *Record {
	c := m.Ctx
	r := invalidRecord(c, nil, nil)
	r.LocalPref = c.BV(100, WidthLP)
	r.Comms = map[string]*smt.Term{}
	for _, cm := range m.activeComms() {
		r.Comms[cm] = c.False()
	}
	for _, rt := range m.risky {
		if r.Through == nil {
			r.Through = map[string]*smt.Term{}
		}
		r.Through[rt] = c.False()
	}
	if !m.hoisting {
		r.Prefix = c.BV(0, WidthIP)
	}
	return r
}

// recVar allocates a symbolic record: variable fields where the activity
// analysis demands, neutral constants elsewhere. isBGP widens the
// BGP-specific fields; adConst is the administrative distance used when
// the field can stay constant.
func (m *Model) recVar(name string, isBGP bool, adConst uint64) *Record {
	c := m.Ctx
	r := m.inv()
	bv := func(suffix string, w int) *smt.Term {
		m.NumRecordVars++
		return c.BVVar(name+"."+suffix, w)
	}
	bl := func(suffix string) *smt.Term {
		m.NumRecordVars++
		return c.BoolVar(name + "." + suffix)
	}
	r.Valid = bl("valid")
	r.PrefixLen = bv("plen", WidthPrefixLen)
	r.Metric = bv("metric", WidthMetric)
	r.RID = bv("rid", WidthRID)
	if !m.slicing || (isBGP && m.ibgpActive) {
		r.AD = bv("ad", WidthAD)
	} else {
		r.AD = c.BV(adConst, WidthAD)
	}
	if m.lpActive {
		r.LocalPref = bv("lp", WidthLP)
	}
	if m.medActive {
		r.MED = bv("med", WidthMED)
		r.NbrASN = bv("asn", WidthASN)
	}
	if isBGP && m.ibgpActive {
		r.Internal = bl("ibgp")
	}
	if isBGP && m.rrActive {
		r.FromClient = bl("fromClient")
	}
	for _, cm := range m.activeComms() {
		r.Comms[cm] = bl("comm." + cm)
	}
	for _, rt := range m.risky {
		r.Through[rt] = bl("through." + rt)
	}
	if !m.hoisting {
		r.Prefix = bv("prefix", WidthIP)
	}
	return r
}

// assertRecEq constrains each variable field of v to equal the
// corresponding field of t.
func (m *Model) assertRecEq(v, t *Record) {
	c := m.Ctx
	eqIfVar := func(a, b *smt.Term) {
		if a != nil && a.Op() == smt.OpBoolVar || a != nil && a.Op() == smt.OpBVVar {
			m.assert(c.Eq(a, b))
		}
	}
	eqIfVar(v.Valid, t.Valid)
	eqIfVar(v.PrefixLen, t.PrefixLen)
	eqIfVar(v.AD, t.AD)
	eqIfVar(v.LocalPref, t.LocalPref)
	eqIfVar(v.Metric, t.Metric)
	eqIfVar(v.MED, t.MED)
	eqIfVar(v.NbrASN, t.NbrASN)
	eqIfVar(v.RID, t.RID)
	eqIfVar(v.Internal, t.Internal)
	eqIfVar(v.FromClient, t.FromClient)
	// Deterministic order: asserts feed the content-addressed compile
	// hash, so map iteration must not leak into the assert list.
	for _, k := range sortedCommKeys(v.Comms) {
		eqIfVar(v.Comms[k], t.Comms[k])
	}
	for _, k := range sortedCommKeys(v.Through) {
		eqIfVar(v.Through[k], t.Through[k])
	}
	if v.Prefix != nil && t.Prefix != nil {
		eqIfVar(v.Prefix, t.Prefix)
	}
}

// wrapVar interposes a variable record equated to t — the behaviour of the
// naive (unsliced) encoding, which materializes every import/export record
// as fresh variables.
func (m *Model) wrapVar(name string, t *Record, isBGP bool) *Record {
	if m.slicing {
		return t
	}
	v := m.recVar(name, isBGP, 0)
	m.assertRecEq(v, t)
	return v
}

// linkUp returns ¬failed for a link.
func (m *Model) linkUp(id string) *smt.Term { return m.Ctx.Not(m.Failed[id]) }

// inPrefix returns the constraint that ip lies within the constant prefix:
// after hoisting this is the range test of §6.1.
func (m *Model) inPrefix(ip *smt.Term, p network.Prefix) *smt.Term {
	return m.Ctx.InRange(ip, uint64(p.First()), uint64(p.Last()))
}

// fbmConst builds FBM(prefixTerm, constAddr, constLen): used only in the
// non-hoisted encoding.
func (m *Model) fbmConst(prefix *smt.Term, addr network.IP, l int) *smt.Term {
	c := m.Ctx
	maskC := c.BV(uint64(network.MaskOf(l)), WidthIP)
	return c.Eq(c.BVAnd(prefix, maskC), c.BV(uint64(addr.Mask(l)), WidthIP))
}

// fbmSym builds FBM(prefix, dstIP, len) with a symbolic length by
// expanding over the 33 possible lengths: the expensive constraint prefix
// hoisting eliminates (§6.1).
func (m *Model) fbmSym(prefix, dstIP, plen *smt.Term) *smt.Term {
	c := m.Ctx
	var cases []*smt.Term
	for l := 0; l <= 32; l++ {
		maskC := c.BV(uint64(network.MaskOf(l)), WidthIP)
		cases = append(cases, c.And(
			c.Eq(plen, c.BV(uint64(l), WidthPrefixLen)),
			c.Eq(c.BVAnd(prefix, maskC), c.BVAnd(dstIP, maskC)),
		))
	}
	return c.Or(cases...)
}

// AssertExtra appends an instrumentation constraint to the model (used by
// the properties package for load totals and similar definitional
// constraints). Such constraints belong to the property, not the config.
func (m *Model) AssertExtra(t *smt.Term) {
	prev := m.setOrigin(provenance.Origin{Kind: "property"})
	m.assert(t)
	m.setOrigin(prev)
}

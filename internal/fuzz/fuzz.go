// Package fuzz is the cross-layer differential fuzzing subsystem: it
// derives small random networks from fuzz seeds (canonical fixtures from
// internal/testnets plus generated topologies from internal/netgen) and
// checks every verdict with six independent oracle families:
//
//  1. differential — the symbolic encoder pinned to a concrete
//     environment must agree with internal/simulator's stable state,
//     router by router (Model.DiffAgainstSimulator);
//  2. metamorphic — the verdict of a property must be invariant under
//     optimization-pass subsets, router/community renaming, assert-order
//     permutation, and the three execution paths (fresh
//     Model.CheckGoal, Session.CheckContext, the service engine);
//  3. certification — every encode runs with Options.Certify, so any
//     UNSAT verdict reached along the way carries a DRAT trace validated
//     by the independent checker in internal/sat/drat; a rejected
//     certificate surfaces as a check error;
//  4. tiered parity — the sound graph fast path (internal/tiered)
//     answers the same checks independently of the solver, and every
//     verdict it claims to decide must match the SAT verdict
//     (Scenario.TierParity);
//  5. modular parity — the assume/guarantee composition
//     (internal/modular) answers the same subnet-scoped goals, and every
//     composed verdict must match the monolithic pipeline's
//     (Scenario.ModularParity);
//  6. stateful reuse — a seeded sequence of edited networks through one
//     long-lived service engine, every verdict held to a single-shot
//     pipeline.Run on the same texts (Scenario.ServiceSequenceParity).
//
// The oracles are one table (oracles.go); every one starts from the same
// pinned options — all engines but the monolithic solver off — and
// switches on the engine it is about.
//
// The same oracles back the native Go fuzz targets in this package, the
// checked-in regression corpus under testdata/regressions, and cmd/bench's
// "-experiment fuzz" smoke mode.
package fuzz

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"repro/internal/config"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/simulator"
	"repro/internal/testnets"
	"repro/internal/topogen"
)

// Scenario is one fuzzable network: raw configuration texts (always
// available, so text-level metamorphic transforms and service requests
// work on every scenario), the built network, a destination pool, and
// the community values appearing in the configs.
type Scenario struct {
	Name  string
	Texts []string
	Net   *testnets.Net
	// Dsts is the destination pool oracles draw from: every interface
	// address plus one address no fixture routes.
	Dsts []network.IP
	// Comms lists community values mentioned in the configurations
	// (community lists and route-map set clauses), used to attach
	// meaningful communities to random announcements.
	Comms []string
	// SimSafe marks networks with a unique stable state, where the
	// concrete simulator is a valid oracle. Multi-stable networks
	// (mutual redistribution disputes) still run the metamorphic and
	// certification oracles.
	SimSafe bool
}

// NewScenario parses the texts, builds the network and derives the
// destination and community pools.
func NewScenario(name string, simSafe bool, texts []string) (*Scenario, error) {
	net, err := testnets.Build(texts...)
	if err != nil {
		return nil, fmt.Errorf("fuzz: scenario %s: %w", name, err)
	}
	s := &Scenario{Name: name, Texts: texts, Net: net, SimSafe: simSafe}
	names := make([]string, 0, len(net.Routers))
	for n := range net.Routers {
		names = append(names, n)
	}
	sort.Strings(names)
	seenComm := map[string]bool{}
	for _, n := range names {
		r := net.Routers[n]
		for _, ifc := range r.Interfaces {
			if ifc.Addr != 0 {
				s.Dsts = append(s.Dsts, ifc.Addr)
			}
		}
		for _, cl := range r.CommunityLists {
			for _, v := range cl.Values {
				seenComm[v] = true
			}
		}
		for _, rm := range r.RouteMaps {
			for _, cl := range rm.Clauses {
				for _, v := range cl.SetCommunity {
					seenComm[v] = true
				}
				for _, v := range cl.DelCommunity {
					seenComm[v] = true
				}
			}
		}
	}
	// An address outside every fixture's address plan, so "unrouted
	// destination" behavior is always exercised.
	s.Dsts = append(s.Dsts, network.MustParseIP("203.0.114.77"))
	for v := range seenComm {
		s.Comms = append(s.Comms, v)
	}
	sort.Strings(s.Comms)
	return s, nil
}

// fromRouters renders parsed configurations back to text (Print∘Parse is
// the identity) and builds the scenario from the printed texts, so even
// generated networks support text-level transforms.
func fromRouters(name string, simSafe bool, routers []*config.Router) (*Scenario, error) {
	texts := make([]string, len(routers))
	for i, r := range routers {
		texts[i] = config.Print(r)
	}
	return NewScenario(name, simSafe, texts)
}

func printed(name string, simSafe bool, net *testnets.Net) (*Scenario, error) {
	names := make([]string, 0, len(net.Routers))
	for n := range net.Routers {
		names = append(names, n)
	}
	sort.Strings(names)
	routers := make([]*config.Router, len(names))
	for i, n := range names {
		routers[i] = net.Routers[n]
	}
	return fromRouters(name, simSafe, routers)
}

// family is one entry of the scenario pool a fuzz seed selects from.
type family struct {
	name  string
	build func(rng *rand.Rand) (*Scenario, error)
}

// pool is the fixture/generator population. Sim-unsafe entries are the
// multi-stable networks: Figure 2's mutual OSPF↔BGP redistribution and
// the netgen networks (which may include it); MultihopIBGP is excluded
// from the simulator oracle because its per-address slices resolve
// iBGP-transport disputes the concrete simulator walks differently.
// Multi-stability is not the only reason for netgen: its borders
// redistribute connected routes into BGP and BGP into OSPF, and learn
// each other's over multihop iBGP, which is where the simulator departed
// from the encoder until it applied the ghost-route rule and forwarded a
// redistributed route as its source protocol does (DESIGN §7 items 4 and
// 12; TestSimulatorMatchesEncoderOnRedistribution). Other such gaps would
// show as differential failures here, so the netgen families stay out of
// DiffVsSim; TierParity holds the graph tier's deterministic verdicts and
// simulated falsifications on them to the solver.
var pool = []family{
	{"ospf-chain", func(rng *rand.Rand) (*Scenario, error) {
		n := 2 + rng.Intn(4)
		return NewScenario(fmt.Sprintf("ospf-chain-%d", n), true, testnets.OSPFChainTexts(n))
	}},
	{"rip-chain", func(rng *rand.Rand) (*Scenario, error) {
		n := 2 + rng.Intn(3)
		return printed(fmt.Sprintf("rip-chain-%d", n), true, testnets.RIPChain(n))
	}},
	{"ebgp-triangle", func(rng *rand.Rand) (*Scenario, error) {
		return printed("ebgp-triangle", true, testnets.EBGPTriangle())
	}},
	{"acl-square", func(rng *rand.Rand) (*Scenario, error) {
		return printed("acl-square", true, testnets.ACLSquare())
	}},
	{"static-null", func(rng *rand.Rand) (*Scenario, error) {
		return printed("static-null", true, testnets.StaticNull())
	}},
	{"hijack-open", func(rng *rand.Rand) (*Scenario, error) {
		return printed("hijack-open", true, testnets.Hijackable(false))
	}},
	{"hijack-filtered", func(rng *rand.Rand) (*Scenario, error) {
		return printed("hijack-filtered", true, testnets.Hijackable(true))
	}},
	{"figure2", func(rng *rand.Rand) (*Scenario, error) {
		return NewScenario("figure2", false, testnets.Figure2Texts())
	}},
	{"multihop-ibgp", func(rng *rand.Rand) (*Scenario, error) {
		return printed("multihop-ibgp", false, testnets.MultihopIBGP())
	}},
	{"ebgp-fabric", func(rng *rand.Rand) (*Scenario, error) {
		// A small all-eBGP fat-tree: every router is its own AS, so the
		// modular pipeline partitions it into singleton components and the
		// ModularParity oracle exercises contract discharge and
		// composition (not just the single-component fallback). Excluded
		// from the simulator oracle: ECMP fabrics resolve multipath
		// tie-breaks the concrete simulator walks in one fixed order.
		ft, err := topogen.Generate(2)
		if err != nil {
			return nil, err
		}
		return fromRouters("ebgp-fabric-2", false, ft.Routers)
	}},
	{"netgen", func(rng *rand.Rand) (*Scenario, error) {
		return netgenScenario("netgen", rng.Int63(), true)
	}},
	{"netgen-redist", func(rng *rand.Rand) (*Scenario, error) {
		// The generated networks without iBGP: the borders still
		// redistribute BGP into OSPF, so this family isolates the graph
		// tier's acyclic-redistribution layer (DESIGN §14, "The layered
		// fragment") from its iBGP layer, which the netgen family adds.
		return netgenScenario("netgen-redist", rng.Int63(), false)
	}},
}

// netgenScenario is a generated network for one generator seed, with or
// without iBGP between its borders.
func netgenScenario(family string, seed int64, ibgp bool) (*Scenario, error) {
	p := netgen.Params{
		MinRouters: 2, MaxRouters: 6,
		PHijack: 0.4, PACLException: 0.3, PDeepDrop: 0.3,
		WithIBGP: ibgp,
	}
	n, err := netgen.Generate(fmt.Sprintf("%s-%d", family, seed), seed, p)
	if err != nil {
		return nil, err
	}
	return fromRouters(n.Name, false, n.Routers)
}

// Families returns the number of scenario families in the pool.
func Families() int { return len(pool) }

// FromSeed derives a scenario and a deterministic random stream from raw
// fuzz input: the first byte selects the family, the rest seed the
// stream. Empty input selects the smallest OSPF chain.
func FromSeed(data []byte) (*Scenario, *rand.Rand, error) {
	fam := 0
	if len(data) > 0 {
		fam = int(data[0]) % len(pool)
		data = data[1:]
	}
	h := fnv.New64a()
	h.Write(data)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	s, err := pool[fam].build(rng)
	if err != nil {
		return nil, nil, err
	}
	return s, rng, nil
}

// RandEnv draws a random concrete environment over the topology: each
// external peer may announce a random prefix (sometimes covering dst,
// sometimes not) with a random path length, MED and community subset, and
// up to maxFail internal links plus occasionally one external link fail.
// It generalizes the ad-hoc generator the encoder's differential tests
// grew, so every fuzz consumer draws environments the same way.
func RandEnv(rng *rand.Rand, topo *network.Topology, dst network.IP, maxFail int, comms []string) *simulator.Environment {
	env := simulator.NewEnvironment()
	pool := []network.Prefix{
		{Addr: dst.Mask(32), Len: 32},
		{Addr: dst.Mask(24), Len: 24},
		{Addr: dst.Mask(16), Len: 16},
		{Addr: dst.Mask(8), Len: 8},
		{Addr: 0, Len: 0},
		network.MustParsePrefix("203.0.113.0/24"), // never covers fixtures
	}
	for _, e := range topo.Externals {
		if rng.Intn(2) == 0 {
			continue
		}
		ann := simulator.Announcement{
			Prefix:  pool[rng.Intn(len(pool))],
			PathLen: rng.Intn(6),
			MED:     rng.Intn(3),
		}
		for _, cm := range comms {
			if rng.Intn(3) == 0 {
				ann.Communities = append(ann.Communities, cm)
			}
		}
		env.Announce(e.Name, ann)
	}
	fails := rng.Intn(maxFail + 1)
	for i := 0; i < fails && len(topo.Links) > 0; i++ {
		l := topo.Links[rng.Intn(len(topo.Links))]
		env.Fail(l.A.Name, l.B.Name)
	}
	if len(topo.Externals) > 0 && rng.Intn(4) == 0 {
		e := topo.Externals[rng.Intn(len(topo.Externals))]
		env.FailExternal(e.Router.Name, e.Name)
	}
	return env
}

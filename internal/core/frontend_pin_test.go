package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/netgen"
	"repro/internal/protograph"
	"repro/internal/smt"
	"repro/internal/smt/passes"
	"repro/internal/testnets"
	"repro/internal/topogen"
)

// graphOf derives the protocol graph of parsed routers, as testnets.Build
// does from text.
func graphOf(t testing.TB, routers []*config.Router) *protograph.Graph {
	t.Helper()
	byName := map[string]*config.Router{}
	for _, r := range routers {
		byName[r.Name] = r
	}
	topo, err := config.BuildTopology(routers)
	if err != nil {
		t.Fatal(err)
	}
	g, err := protograph.Build(topo, byName)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// frontEndNetworks are the networks the front end's output is pinned on.
func frontEndNetworks(t testing.TB) []struct {
	name string
	g    *protograph.Graph
} {
	ft, err := topogen.Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	nets := []struct {
		name string
		g    *protograph.Graph
	}{
		{"ospf-chain-4", testnets.OSPFChain(4).Graph},
		{"rip-chain-3", testnets.RIPChain(3).Graph},
		{"ebgp-triangle", testnets.EBGPTriangle().Graph},
		{"figure2", testnets.Figure2().Graph},
		{"acl-square", testnets.ACLSquare().Graph},
		{"static-null", testnets.StaticNull().Graph},
		{"hijackable", testnets.Hijackable(false).Graph},
		{"multihop-ibgp", testnets.MultihopIBGP().Graph},
		{"pods-2", graphOf(t, ft.Routers)},
	}
	for _, size := range []int{6, 13, 25} {
		n, err := netgen.Audit(size)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, struct {
			name string
			g    *protograph.Graph
		}{fmt.Sprintf("netgen-%d", size), graphOf(t, n.Routers)})
	}
	return nets
}

// blastGoal is the system CheckGoal blasts for "every router reaches the
// destination or an exit, given no failures": the compiled asserts plus
// the property's instrumentation, pruned to the goals' cone, then the
// goals, in the order the executor asserts them.
func blastGoal(m *Model) (*CompiledNetwork, []*smt.Term) {
	cn, sys, _ := compileGoal(m)
	return cn, append(sys.Asserts, sys.Goals...)
}

// compileGoal is blastGoal's compile phase; the executor comes back ready
// to blast the system into its solver as a check does.
func compileGoal(m *Model) (*CompiledNetwork, *passes.System, *executor) {
	cn := m.Compile()
	reach := m.Reach(m.Main, true)
	prop := m.Ctx.True()
	for _, n := range m.G.Topo.Nodes {
		prop = m.Ctx.And(prop, reach[n.Name])
	}
	x := m.newExecutor(smt.NewSolver(m.Ctx), "check", "goal")
	defer x.Span.End()
	_, sys := x.compile(cn, []*smt.Term{m.NoFailures(), m.Ctx.Not(prop)}, &Result{})
	return cn, sys, x
}

func dimacsHash(t testing.TB, c *smt.Context, asserts []*smt.Term) string {
	t.Helper()
	b := smt.NewCNFBuilder(c)
	for _, a := range asserts {
		b.Assert(a)
	}
	h := sha256.New()
	if err := b.WriteDIMACS(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFrontEndOutputPinned holds the front end to its output at the
// commit before its containers went dense (PR 23): the terms it creates
// and their order (NumTerms after encoding and after the query is
// compiled), the CNF the blaster makes of the compiled asserts alone, and
// the CNF it makes of the query, clause for clause and variable for
// variable. A change that is meant to move any of them re-records the
// row and says why.
func TestFrontEndOutputPinned(t *testing.T) {
	want := map[string]string{
		"ospf-chain-4":  "478 542 b18a731a0c5fc043a1cd7800f47c86aa2f490984b9a827c19afd5a6b5dcd6283 753d94ea1d0bbe805c942faa56c4bbbf1311d6a8076c2d886b12528bb1e1cfbd",
		"rip-chain-3":   "342 387 b46890b66a8ff5dee5cfc175e7d8ac291128e008456ebdcd7da44a488551cd0a c0cc99e79870562b32fd4336a2a3785fa7d80e5dbe1d6858e2fe8c9fd76c9a87",
		"ebgp-triangle": "418 474 49cabe5200f9f74302dcbd1335f15d57bdd65c378116fdb853a7089d8722aa44 49bcebb57358aba5f2836249db233203826ef5da8f840f51fcf8259f142ee623",
		"figure2":       "988 1042 ed443e9b4f4370efa5300c6d9ef849e153d6e2887b66e9a4fdfc533b0a630d95 d8f678ecc576c359fcf7ae606d54b14d898fdeb129869bc22e90602338774440",
		"acl-square":    "493 568 e26ec0690df8a9972d6d86ad976ff59c2f041188218c5960208d89cb0de4d66c e856dfe747c5ae80b72024c2e3c1c5c5b52a8800a865dde3113055f8445390e6",
		"static-null":   "104 124 10f3355b36e238f2fc16928463aab31505a81c94236f9e24c2663a25080af420 0cf5d7e74d8ef5d57c0acad7c24679cec3e268f4b7ed1a8599d05e8286fa5fb7",
		"hijackable":    "270 299 d9940e69efb4f4ef7455b4a2ff6e056df152dcef423dae57b47547b1198f2a29 a47015d6fea6ebaa19ff1b52af0e61cd3adab9cfc3e45a28ba0b027637c5e14f",
		"multihop-ibgp": "913 1067 26d1e0f0711c092e18709a70ad1b564041cb1a8e03e4e35d91e0fe03b4f851f5 520e64ecefbbb9033a0bad8365ea0de0fc778bd2f17a0a92f3d65746c53c1d07",
		"pods-2":        "603 689 9ba4257fa3f2ce94f24bac14400776cfb4fe71622344167e6e82c394d8baa419 25eef370fa0fd97fa094e82e96791498e6753552fe04dce5fc38240d8b907f10",
		"netgen-6":      "3775 4181 e11c814ba8a24332e7a95ba911e37232b0745337ca1a4fe8f13869a192ca1f29 4771d50e737d8826dc2b824f9a4a5ae94c75de1fc9cfcaeb1d6aee485781ba60",
		"netgen-13":     "3105 3464 a58c3557c2b3666a6947a2e7331bebf87fa56b95c7b43303dc68a1d6db6ddafa 7b43ca1d31a51f985cd50ab8d27181945ecf8219ced4effdc629cabb5fa68800",
		"netgen-25":     "6021 6740 b2c858ebb1e31dfc6f28731c69e61c332ad6c652a58357a22e097bc345577673 54f7f4124f86a5232a29f8ece8d6c911e0d0bac3672a187f456650f5dfdb3e0e",
	}
	for _, n := range frontEndNetworks(t) {
		m, err := Encode(n.g, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		encoded := m.Ctx.NumTerms()
		cn, system := blastGoal(m)
		got := fmt.Sprintf("%d %d %s %s", encoded, m.Ctx.NumTerms(), dimacsHash(t, m.Ctx, cn.Asserts), dimacsHash(t, m.Ctx, system))
		if got != want[n.name] {
			t.Errorf("%s:\n got %q\nwant %q", n.name, got, want[n.name])
		}
	}
}

// TestSizeHintLeavesCNFAlone blasts one query three times — as a fresh
// check does, on a solver the executor sizes from the compile phase's
// term count once the goals alone survive, then on one given no hint and
// on one told a hundred times as much — and compares the CNF: the hint
// buys room and decides nothing, and the goals' own solver leaves no
// trace in the check's.
func TestSizeHintLeavesCNFAlone(t *testing.T) {
	// A small network: a hundred times its room is still tens of megabytes.
	m, err := Encode(testnets.Hijackable(false).Graph, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, sys, x := compileGoal(m)
	if x.terms < 100 {
		t.Fatalf("the compile phase left a hint of %d terms", x.terms)
	}
	terms := x.terms
	enterGoals := func(sol *smt.Solver) func() {
		return func() {
			for _, g := range sys.Goals {
				sol.Assert(g)
			}
		}
	}
	cnf := func(sol *smt.Solver) string {
		h := sha256.New()
		fmt.Fprintf(h, "p cnf %d %d\n", sol.SAT().NumVars(), sol.SAT().NumClauses())
		for _, cl := range sol.SAT().Clauses() {
			fmt.Fprintln(h, cl)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	x.goalsAlone(sys.Goals)
	if !x.sol.SAT().Okay() {
		t.Fatal("the goals refuted themselves: the system is never blasted")
	}
	dropped := x.sol.SAT().Stats
	x.sol = nil
	x.blastFresh(sys, dropped, nil, nil)
	sized := cnf(x.sol)
	for _, hint := range []int{0, 100 * terms} {
		sol := smt.NewSolver(m.Ctx)
		sol.Reserve(hint)
		for _, a := range sys.Asserts {
			sol.Assert(a)
		}
		enterGoals(sol)()
		if got := cnf(sol); got != sized {
			t.Errorf("a solver sized for %d terms blasts %s, the executor's, sized for %d, %s", hint, got, terms, sized)
		}
	}
}

// TestEveryPassNameChangesSomeFormula keeps Options.Passes to names that
// do something: enabling any one alone must change the blasted CNF of the
// panel's query, relative to "none", on at least one network. A pass that
// is an identity everywhere is a knob to delete (as fold and cse were), and
// this is the bar a new name has to clear.
func TestEveryPassNameChangesSomeFormula(t *testing.T) {
	nets := frontEndNetworks(t)
	formula := func(g *protograph.Graph, passes string) string {
		m, err := Encode(g, Options{Passes: passes})
		if err != nil {
			t.Fatal(err)
		}
		_, system := blastGoal(m)
		return dimacsHash(t, m.Ctx, system)
	}
	for _, name := range PassNames() {
		changes := false
		for _, n := range nets {
			if changes = formula(n.g, name) != formula(n.g, "none"); changes {
				break
			}
		}
		if !changes {
			t.Errorf("pass %q alone leaves the CNF of all %d networks as \"none\" does", name, len(nets))
		}
	}
}

// TestFaultInvariancePairPinned pins the CNF of Figure 7's net002
// fault-invariance pair (two external peers). The pair links its copies'
// announcements peer by peer; in map order the second copy's peer
// variables were blasted in either order, so the pair's CNF and search
// changed from process to process (20 542 or 22 161 conflicts). A change
// that is meant to move the pair's encoding re-records the hash and says
// why.
func TestFaultInvariancePairPinned(t *testing.T) {
	n, err := netgen.Generate("net002", 2, netgen.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	pair, _, err := FaultInvariance(graphOf(t, n.Routers), DefaultOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	got := dimacsHash(t, pair.Ctx, append(append([]*smt.Term(nil), pair.A.Asserts...), pair.B.Asserts...))
	if want := "4ed2471c0c0211dc2bbbbfa52fe71b41332be787b382ac81636f6da60e291abe"; got != want {
		t.Errorf("pair CNF %s, want %s", got, want)
	}
}

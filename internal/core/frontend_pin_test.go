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
// compiled), the compiled artifact's content address, and the CNF the
// blaster makes of the query, clause for clause and variable for
// variable. A change that is meant to move any of them re-records the
// row and says why.
func TestFrontEndOutputPinned(t *testing.T) {
	want := map[string]string{
		"ospf-chain-4":  "478 542 09d0e23b17046adeccef825bc9b382b4a43083a68e630de5c43b97fe81dfe4fe 753d94ea1d0bbe805c942faa56c4bbbf1311d6a8076c2d886b12528bb1e1cfbd",
		"rip-chain-3":   "342 387 ac50a7deacec1b187ffab28d7da02ab399acaad186c456514894c4f423276b9b c0cc99e79870562b32fd4336a2a3785fa7d80e5dbe1d6858e2fe8c9fd76c9a87",
		"ebgp-triangle": "418 474 739f05af67e71d6055b5ef40fbe2e9dc431ce3eb76693272cd503c2a0bcf04f0 49bcebb57358aba5f2836249db233203826ef5da8f840f51fcf8259f142ee623",
		"figure2":       "988 1042 e26044ac7ba0bed5d57332539c2c214e26dac3554671860aaf7754fa77a3978a d8f678ecc576c359fcf7ae606d54b14d898fdeb129869bc22e90602338774440",
		"acl-square":    "493 568 68fb69cc4bbb14e4d5834acefe698ae8057b22164cb750494fac13ec909f2a2c e856dfe747c5ae80b72024c2e3c1c5c5b52a8800a865dde3113055f8445390e6",
		"static-null":   "104 124 c8267f84fe7f2e01c6c8d1bf7d7917658a124be35deba124048741de20891316 0cf5d7e74d8ef5d57c0acad7c24679cec3e268f4b7ed1a8599d05e8286fa5fb7",
		"hijackable":    "270 299 b725fa1f14f0325c3456e0465e294d180ea7f12674932728aa32de503ab82087 a47015d6fea6ebaa19ff1b52af0e61cd3adab9cfc3e45a28ba0b027637c5e14f",
		"multihop-ibgp": "913 1067 2902876e6383f2e1fc815a8f1394332043eede076008216fafb3819f18bb3a03 520e64ecefbbb9033a0bad8365ea0de0fc778bd2f17a0a92f3d65746c53c1d07",
		"pods-2":        "603 689 431cbca68326f98fb7ac2f1c0cce4f350a579bad73c577a6a4db72fc744c7401 25eef370fa0fd97fa094e82e96791498e6753552fe04dce5fc38240d8b907f10",
		"netgen-6":      "3775 4181 17c4c6ec74b19334da855d46cf90dfb6eb794ab4362640f54c256bd0f95cbfb4 4771d50e737d8826dc2b824f9a4a5ae94c75de1fc9cfcaeb1d6aee485781ba60",
		"netgen-13":     "3105 3464 224feffd800f143b59142b363c0b0d12b3a3852ee1dc9081b63a4493bc400292 7b43ca1d31a51f985cd50ab8d27181945ecf8219ced4effdc629cabb5fa68800",
		"netgen-25":     "6021 6740 415d54a869c6c06d43a103e15bee1463d0dc062368279384da8719a457d98f56 54f7f4124f86a5232a29f8ece8d6c911e0d0bac3672a187f456650f5dfdb3e0e",
	}
	for _, n := range frontEndNetworks(t) {
		m, err := Encode(n.g, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		encoded := m.Ctx.NumTerms()
		cn, system := blastGoal(m)
		got := fmt.Sprintf("%d %d %s %s", encoded, m.Ctx.NumTerms(), cn.Hash(), dimacsHash(t, m.Ctx, system))
		if got != want[n.name] {
			t.Errorf("%s:\n got %q\nwant %q", n.name, got, want[n.name])
		}
	}
}

// TestSizeHintLeavesCNFAlone blasts one query three times — as a check
// does, on a solver the executor sizes from the compile phase's term
// count, then on one given no hint and on one told a hundred times as
// much — and compares the CNF: the hint buys room and decides nothing.
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
	x.blast(x.sol.Assert, sys.Asserts, sys.Origins, enterGoals(x.sol))
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

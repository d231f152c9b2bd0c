package tiered_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"reflect"
	"sort"
	"testing"

	"repro/internal/config"
	"repro/internal/fuzz"
	"repro/internal/harness"
	"repro/internal/netgen"
	"repro/internal/network"
	"repro/internal/protograph"
	"repro/internal/simulator"
	"repro/internal/testnets"
	"repro/internal/tiered"
	"repro/internal/topogen"
)

// pathNet is one network of the graph-path pin: configuration texts in
// load order, and the fat-tree they print when they are one.
type pathNet struct {
	name  string
	texts []string
	ft    *topogen.FatTree
}

func printAll(routers []*config.Router) []string {
	texts := make([]string, len(routers))
	for i, r := range routers {
		texts[i] = config.Print(r)
	}
	return texts
}

// printByName prints a name-keyed router set in name order.
func printByName(routers map[string]*config.Router) []string {
	names := make([]string, 0, len(routers))
	for name := range routers {
		names = append(names, name)
	}
	sort.Strings(names)
	list := make([]*config.Router, len(names))
	for i, name := range names {
		list[i] = routers[name]
	}
	return printAll(list)
}

// graphPathNetworks are the networks the graph path's output is pinned
// on: the testnets fixtures and the fuzz regression corpus, the 24
// enterprise-audit networks, and the pods-2, pods-4 and pods-24 fabrics.
func graphPathNetworks(t *testing.T) []pathNet {
	t.Helper()
	var nets []pathNet
	for _, fx := range []struct {
		name string
		net  *testnets.Net
	}{
		{"ospf-chain-4", testnets.OSPFChain(4)},
		{"rip-chain-3", testnets.RIPChain(3)},
		{"ebgp-triangle", testnets.EBGPTriangle()},
		{"figure2", testnets.Figure2()},
		{"acl-square", testnets.ACLSquare()},
		{"static-null", testnets.StaticNull()},
		{"hijackable", testnets.Hijackable(false)},
		{"hijackable-filtered", testnets.Hijackable(true)},
		{"multihop-ibgp", testnets.MultihopIBGP()},
	} {
		nets = append(nets, pathNet{name: fx.name, texts: printByName(fx.net.Routers)})
	}
	corpus, err := fuzz.LoadCorpus("../fuzz/testdata/regressions")
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range corpus {
		nets = append(nets, pathNet{name: "corpus-" + cs.Name, texts: printByName(cs.Net.Graph.Configs)})
	}
	for size := 2; size <= 25; size++ {
		n, err := netgen.Audit(size)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, pathNet{name: n.Name, texts: printAll(n.Routers)})
	}
	for _, k := range []int{2, 4, 24} {
		ft, err := topogen.Generate(k)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, pathNet{name: fmt.Sprintf("pods-%d", k), texts: printAll(ft.Routers), ft: ft})
	}
	return nets
}

// dump writes v's exported content: pointers followed, maps in sorted key
// order, nil and empty slices and maps told apart as reflect.DeepEqual
// tells them apart. Unexported fields are representation, not output.
func dump(w io.Writer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			io.WriteString(w, "nil")
			return
		}
		dump(w, v.Elem())
	case reflect.Struct:
		io.WriteString(w, "{")
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				io.WriteString(w, f.Name+":")
				dump(w, v.Field(i))
				io.WriteString(w, " ")
			}
		}
		io.WriteString(w, "}")
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			io.WriteString(w, "nil")
			return
		}
		io.WriteString(w, "[")
		for i := 0; i < v.Len(); i++ {
			dump(w, v.Index(i))
			io.WriteString(w, " ")
		}
		io.WriteString(w, "]")
	case reflect.Map:
		if v.IsNil() {
			io.WriteString(w, "nil")
			return
		}
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		io.WriteString(w, "map[")
		for _, k := range keys {
			fmt.Fprintf(w, "%v=", k)
			dump(w, v.MapIndex(k))
			io.WriteString(w, " ")
		}
		io.WriteString(w, "]")
	default:
		fmt.Fprintf(w, "%v", v)
	}
}

func dumpTo(h hash.Hash, xs ...any) {
	for _, x := range xs {
		dump(h, reflect.ValueOf(x))
		io.WriteString(h, "\n")
	}
}

func short(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }

// indexOf numbers a slice's elements by identity.
func indexOf[T comparable](xs []T) map[T]int {
	out := make(map[T]int, len(xs))
	for i, x := range xs {
		out[x] = i
	}
	return out
}

func indices[T comparable](idx map[T]int, xs []T) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = idx[x]
	}
	return out
}

// pinSubnets is every interface subnet in router and interface order plus
// a prefix nothing routes — thinned to eight evenly spaced ones past 64 —
// and, on a fat-tree, the Figure 8 destination.
func pinSubnets(g *protograph.Graph, ft *topogen.FatTree) []network.Prefix {
	subs := ifaceSubnets(g)
	if len(subs) > 64 {
		var some []network.Prefix
		for i := 0; i < len(subs); i += len(subs) / 8 {
			some = append(some, subs[i])
		}
		subs = some
	}
	if ft != nil {
		subs = append(subs, topogen.ToRSubnet(0, 0))
	}
	return subs
}

// graphPathDigest loads the network from text as the benchmark's loader
// does and hashes each layer's output: the parsed routers, the topology,
// the protocol graph, the simulator's stable states and the graph tier's
// outcomes.
func graphPathDigest(t *testing.T, n pathNet) string {
	t.Helper()
	parseH := sha256.New()
	var routers []*config.Router
	byName := map[string]*config.Router{}
	for _, text := range n.texts {
		r, err := config.Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", n.name, err)
		}
		routers = append(routers, r)
		byName[r.Name] = r
		io.WriteString(parseH, config.Print(r))
		dumpTo(parseH, r)
	}

	topo, err := config.BuildTopology(routers)
	if err != nil {
		t.Fatalf("%s: %v", n.name, err)
	}
	topoH := sha256.New()
	dumpTo(topoH, topo.Nodes, topo.Links, topo.Externals)
	links, exts := indexOf(topo.Links), indexOf(topo.Externals)
	for _, node := range topo.Nodes {
		if topo.Node(node.Name) != node {
			t.Fatalf("%s: Node(%q) is not its node", n.name, node.Name)
		}
		dumpTo(topoH, indices(links, topo.LinksOf(node)), indices(exts, topo.ExternalsOf(node)))
	}

	g, err := protograph.Build(topo, byName)
	if err != nil {
		t.Fatalf("%s: %v", n.name, err)
	}
	graphH := sha256.New()
	dumpTo(graphH, g.Instances, g.OSPFAdjs, g.RIPAdjs, g.Sessions, g.IBGPSpeakers, g.HasCustomLocalPref())
	sessions, ospf, rip := indexOf(g.Sessions), indexOf(g.OSPFAdjs), indexOf(g.RIPAdjs)
	for _, node := range topo.Nodes {
		dumpTo(graphH, indices(sessions, g.SessionsOf(node)), indices(ospf, g.OSPFAdjsOf(node)), indices(rip, g.RIPAdjsOf(node)))
	}

	subs := pinSubnets(g, n.ft)
	simH := sha256.New()
	sim := simulator.New(g)
	for _, sub := range subs {
		envs := []*simulator.Environment{simulator.NewEnvironment()}
		if len(topo.Links) > 0 {
			l := topo.Links[len(topo.Links)/2]
			envs = append(envs, simulator.NewEnvironment().Fail(l.A.Name, l.B.Name))
		}
		if len(topo.Externals) > 0 {
			envs = append(envs, simulator.NewEnvironment().Announce(topo.Externals[0].Name,
				simulator.Announcement{Prefix: sub, PathLen: 1, MED: 10, Communities: []string{"65000:7"}}))
		}
		for _, env := range envs {
			res, err := sim.Run(sub.First(), env)
			if err != nil {
				io.WriteString(simH, err.Error()+"\n")
				continue
			}
			dumpTo(simH, res)
		}
	}

	var goals []tiered.Goal
	for _, check := range append(wholeNetworkChecks, "no-leak") {
		goals = append(goals, tiered.Goal{Check: check})
	}
	for _, sub := range subs {
		for _, check := range append(wholeNetworkChecks, "no-leak") {
			goals = append(goals, tiered.Goal{Check: check, Subnet: sub, HasSubnet: true})
		}
	}
	goals = append(goals, mayGoals(g, subs)...)
	if n.ft != nil {
		f := &harness.Fabric{FT: n.ft}
		for _, prop := range harness.AllFig8Props() {
			if goal, ok := harness.Fig8Goal(f, prop); ok {
				goals = append(goals, goal)
			}
			if goal, ok := harness.Fig8ModularGoal(f, prop); ok {
				goals = append(goals, goal)
			}
		}
	}
	tieredH := sha256.New()
	a := tiered.NewAnalysis(g)
	for _, goal := range goals {
		dumpTo(tieredH, goal, a.Decide(goal))
	}
	return fmt.Sprintf("%s %s %s %s %s", short(parseH), short(topoH), short(graphH), short(simH), short(tieredH))
}

// TestGraphPathOutputPinned holds the path from configuration text to a
// graph-tier verdict to its output when its layers still looked routers up
// by name (DESIGN §21): the parsed routers; the order of nodes, links,
// externals, instances, adjacencies and sessions (they number the
// encoder's variables); every simulator Result — states, hops in order,
// per-protocol records with paths, origins and communities, exports and
// rounds — for each subnet's first address under an empty environment,
// one failed link and one external announcement; and the graph tier's
// Outcome of every whole-network check, unscoped and scoped, of the
// may-graph goal sweep and of the Figure 8 goals. The columns are those
// five layers' hashes. A change that is meant to move a layer re-records
// its column and says why.
func TestGraphPathOutputPinned(t *testing.T) {
	want := map[string]string{
		"ospf-chain-4":           "9fdee386cf2824d5 e49b4c9ce6f208e8 321b7e7f169ee841 a8993c51349b8f02 0b7f0421f7970913",
		"rip-chain-3":            "32edb86f072fa2b1 b74d17acc7dd69f6 90aec36298022496 d888d2e5a254e649 f8f39884df12cba8",
		"ebgp-triangle":          "655d7669b7b11a6d c59a2d9db7b609f9 a6ebe6e6d972ec28 f5a39943d42e9e70 fe71f7faccf26bab",
		"figure2":                "12fc76f0f8b57b46 885350fda68e1bbf ac4841cb1ac9800e c01b48a95cdf8cab 0e5c69b678c5a393",
		"acl-square":             "0c3a8520d33b407c 647a970e226c7b36 dbd7fa41198bb4f0 17b157ebb5bd618a 48e35b939bab5c26",
		"static-null":            "5de3bb73c39b389e 8f6d59b63d100178 c85f5b2cc410c381 a5f81eaa6d1e9d77 47d557b12142ecd2",
		"hijackable":             "2d1a0cda161e914e 89af577f36387323 6760c88dc56ec988 50b9c2354df01fe6 1e56f5f805740322",
		"hijackable-filtered":    "a1196fdaa13e0ef1 89af577f36387323 1d098dcfd85481a2 0d7fec743de81e4d 718d7a7e90aa98f9",
		"multihop-ibgp":          "a827fd8d90840b81 5b4e40720f1b95ea a285b75fcd97df68 8d28c25e1e0b82c9 9d4fc09c83dc32bc",
		"corpus-acl":             "0c3a8520d33b407c 647a970e226c7b36 dbd7fa41198bb4f0 17b157ebb5bd618a 48e35b939bab5c26",
		"corpus-aggregation":     "0b14ff289646af2e ba9a34a5c4455381 52976624289f3432 c12b97704ce3be2a 0fb2767bd1732950",
		"corpus-communities":     "5fff778362884ad0 ba9a34a5c4455381 73d221c80f598bbe 3b43a8aa5f9e6c34 099c78d796fefae8",
		"corpus-med":             "5310c8af052c2da7 9aa7c7697e280fab 91df7d9b76831026 c11a7700c1110c65 155907849a4efbe5",
		"corpus-multipath":       "146e08caa1597091 647a970e226c7b36 dbd7fa41198bb4f0 17b157ebb5bd618a 2872d166d91ff010",
		"corpus-redistribution":  "8bc9b18df65d8e17 ba9a34a5c4455381 52976624289f3432 061c02c136b4aa1c 5ac9de7f33770bb9",
		"corpus-route-reflector": "da6508f88e7d4141 a5f4eff481552e73 dfee8a982704205c 968ea32185a028d1 9f93acfb0722196d",
		"corpus-static":          "5de3bb73c39b389e 8f6d59b63d100178 c85f5b2cc410c381 a5f81eaa6d1e9d77 47d557b12142ecd2",
		"net2":                   "028dce179e1ada59 c391cbc608f9c36e a5fdcadec71f85c5 5dd7acb0fc97b3bb cc3bf606499c1a28",
		"net3":                   "d9fc7d9eb3199175 33c18d22087c6630 f23b3bf4ab15ff2a 71829f0f98de18b6 4276bc6d45776ddb",
		"net4":                   "3fd361566d0fccd3 9e1345124ef7196a 9ca81bd96c6ed1b9 d51efe7babf3d608 f9061a717c318943",
		"net5":                   "7ce93fc8b2714354 2be31b1be19cf48e bafb38bde248d079 5cb629cc1120ddf3 4b6e10509cf1d54e",
		"net6":                   "d50ac36f5d49f1c1 377a9b9fde6e5e63 d7f193dd5e54b222 cd0f0301b3f1aea1 607efe00a7dbc9c3",
		"net7":                   "212991a5c1908051 85b466ac88453c15 14d0a86ecb85e117 5222ea58d162c547 ee224a97cae58a1b",
		"net8":                   "d33ba0b7fe233a2a 06d68e981172990f f1d27e737f504c4a 9e161a8209dbd309 6078efb019960128",
		"net9":                   "c4240924d8acf1d4 5fdaea55ac0a6e5f 267895caf1af48ae 9c440c3ca11cdf96 48d81518013f41c8",
		"net10":                  "f9d00c52a217376c 6da82947eae46838 0155ed69757850eb 2a6ca2413f6f7a44 58ed5ac5a65a0b58",
		"net11":                  "1bb24cca05ed58de c110be90b1602ac9 e5017842d4d10a2d 66d6724d0d902252 1f321a54ba15917b",
		"net12":                  "3310532718db520c 6424b159e1e2ea03 d6612a46564cd0e7 c750170bc0390e1a 33afa44e68166d5c",
		"net13":                  "ec6fe2ae6f73b6e0 90b5306b942436b4 b78a38272854eca3 eb6a8248b824584c de39df24578fbcac",
		"net14":                  "eb88064b9e666d4f cf7f52872bcc6b2c ae4d9ad009111331 dc4a4b0ca6d2889c 7e2d0cb7595b183a",
		"net15":                  "8bd3fed8a04bf591 ac393532124cc990 30689f853550704f 546bf4290a2a756d 830856974352b52b",
		"net16":                  "8f348123d483cb8a 859726cd7d67baaa 443a507ca62cfeeb b18f811dcbe31ea2 5d8ae98bb935fedd",
		"net17":                  "33943070b81548e7 0a16afc37f87caa4 a76283d2477e83fa a454eacfcf183aa0 389b0c3421cf674d",
		"net18":                  "5c5d8de7e98f9942 95764a85c8cf549a 3f59ddb1736825b7 e09a1ce1ba0057e0 f22dd2b1cbee7c2f",
		"net19":                  "70367b1f3c11483a 5d01618d4861ae22 a354184eb6684fac f42fd52eff2d6e88 f941df2d03f5d859",
		"net20":                  "d98ede868a6432e9 ac87f2c61d088238 5aad9a45d97cce0d b08e4dabeeda690d 3f8d13d987700874",
		"net21":                  "a3d1d0b1258f483b 8a2b07d83f9a77f8 3393651ae2d6cc7e d335a830e4632f3d 3bba379d0ee7bb90",
		"net22":                  "3c6ae8006ad4506e 83121f162f52e568 9f7b7f1bbd4801cb f0351881ee4fa3aa 53367503ac138719",
		"net23":                  "5a70dd496684abb1 bc206c5a7fe46dc9 64f49fbdf0bd06fd de32c4f4b69dcfc4 6d783549dbb43bad",
		"net24":                  "940e8f35fcc06059 29874d9944e4853a 9936b6afa1f28cd5 5ff4f8f1a5fb3ecb cfc07d47d6f9357e",
		"net25":                  "5fe1f8a655a44036 1ba1fa4e34024446 8bbb993614968197 557e255628be9d46 21744cbd66957ea9",
		"pods-2":                 "899b3de21d52d8a5 d4dc2b5c30fad69f 1c2ae50439d58cfe e1da472a82552dd3 df4af9fc0c5f6cc2",
		"pods-4":                 "79adc2828a12d7e1 43d7099d0f401327 90906439818c9221 e04188b1b48f9f4e 618674a25013fd4d",
		"pods-24":                "34ab1377e5750206 ded2df4535c60b1a ca6b5f127497a58b 7525cdb4271ee335 4bdd0c4ceb18e820",
	}
	for _, n := range graphPathNetworks(t) {
		if got := graphPathDigest(t, n); got != want[n.name] {
			t.Errorf("%s:\n got %q\nwant %q", n.name, got, want[n.name])
		}
	}
}

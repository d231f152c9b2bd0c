package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/network"
	"repro/internal/service"
	"repro/internal/testnets"
	"repro/internal/topogen"
)

// daemon-mixed: the verification daemon behind its HTTP handler, driven
// in a closed loop by daemonClients clients that each wait for a reply
// before sending the next request. The script mixes exact repeats
// (verdict cache), new questions about networks the daemon holds (live
// sessions, graph tier, compile reuse) and semantic edits that force a
// network through the whole pipeline. The only workload that crosses the
// HTTP boundary, runs concurrently, and reaches the solver through
// incremental sessions.

// daemonClients is fixed, not read from the machine, so that the script
// is the same everywhere; it matches the two cores the benchmark is
// sized for.
const daemonClients = 2

// The script's mix. Comment-only edits count as warm: they change the
// configuration hash but compile to the network the daemon already has.
const (
	hitShare      = 0.60
	warmShare     = 0.25
	commentEveryN = 5 // every fifth warm request is a comment-only edit
)

// known is a question whose answer follows from how the network was
// built, never from running the program.
type known struct {
	spec service.Spec
	want bool
}

// daemonNet is one network the script asks about.
type daemonNet struct {
	name    string
	routers []*config.Router
	// singles are the one-off checks, each asked once per pass; family
	// are the parametric ones the seed draws from.
	singles, family []known
	// after is the question asked after a semantic edit, with the answer
	// for an edit that leaves forwarding alone (cost, local-pref); a null
	// route at the source turns the answer to false.
	after known
	edits []edit
}

// edit changes one parsed copy of the network; n makes it unique.
// breaks says the edit cuts the path the network's after-question asks
// about.
type edit struct {
	name   string
	breaks bool
	apply  func(r map[string]*config.Router, n int)
}

func spec(check, src, via, subnet string, hops int) service.Spec {
	return service.Spec{Check: check, Src: src, Via: via, Subnet: subnet, Hops: hops}
}

// lineFamily adds the questions about a chain of routers in which every
// packet for subnet, owned by line[end], walks along the line:
// reachability holds and isolation fails from everywhere, a path is
// bounded by h hops exactly when h covers the distance, and a waypoint
// is crossed exactly when it sits between source and owner. reach is
// the answer to plain reachability, which an unfiltered external
// announcement can break.
//
// Hop bounds stop at maxHops. The solver path sizes its path-length
// counters for the number of routers and wraps a larger constant around,
// so on a three-router network "at most 8 hops" is reported violated;
// the script keeps to bounds that fit (routers+2).
func lineFamily(line []string, end int, subnet string, reach bool, maxHops int) []known {
	var out []known
	for i, src := range line {
		if i == end {
			continue
		}
		dist := i - end
		if dist < 0 {
			dist = -dist
		}
		out = append(out,
			known{spec("reachability", src, "", subnet, 0), reach},
			known{spec("isolation", src, "", subnet, 0), false})
		for h := 1; h <= maxHops; h++ {
			out = append(out, known{spec("bounded-length", src, "", subnet, h), h >= dist})
		}
		for j, via := range line {
			if j == i || j == end {
				continue
			}
			between := (i < j && j < end) || (end < j && j < i)
			out = append(out, known{spec("waypoint", src, via, subnet, 0), between})
		}
	}
	return out
}

// distinct drops questions already in the list: two lines through one
// core ask the same thing of it, and a repeat would be a cache hit.
func distinct(ks []known) []known {
	seen := map[service.Spec]bool{}
	out := ks[:0]
	for _, k := range ks {
		if !seen[k.spec] {
			seen[k.spec] = true
			out = append(out, k)
		}
	}
	return out
}

// byKindInTurn reorders questions so that the kinds of check take turns
// in a fixed order, keeping the order within each kind. What a question
// costs depends on its kind (the graph tier answers some in microseconds,
// others reach the solver), so every network is asked the same share of
// each.
func byKindInTurn(ks []known) []known {
	kinds := []string{"reachability", "isolation", "bounded-length", "waypoint"}
	byKind := map[string][]known{}
	for _, k := range ks {
		byKind[k.spec.Check] = append(byKind[k.spec.Check], k)
	}
	out := make([]known, 0, len(ks))
	for len(out) < len(ks) {
		for _, kind := range kinds {
			if q := byKind[kind]; len(q) > 0 {
				out, byKind[kind] = append(out, q[0]), q[1:]
			}
		}
	}
	return out
}

// uniqueHost is a host prefix no network uses, different for every n.
func uniqueHost(n int) network.Prefix {
	return network.MustParsePrefix(fmt.Sprintf("198.19.%d.%d/32", n/250, n%250+1))
}

// The edit menu. Every edit is a semantic change, so the edited network
// compiles to a constraint system the daemon has not seen. An added deny
// ACL is not on the menu: the daemon compiles a network with and without
// it to the same system and shares one session between them (see
// README.md, "Found while building").
func costEdit(router, iface string) edit {
	return edit{"link-cost", false, func(r map[string]*config.Router, n int) {
		r[router].Iface(iface).OSPFCost = 2 + n
	}}
}

func localPrefEdit(router string) edit {
	return edit{"local-pref", false, func(r map[string]*config.Router, n int) {
		nb := r[router].BGP.Neighbors[0]
		if nb.InMap == "" {
			nb.InMap = "BENCH-LP"
			r[router].RouteMaps[nb.InMap] = &config.RouteMap{Name: nb.InMap,
				Clauses: []*config.RouteMapClause{{Seq: 10, Action: config.Permit}}}
		}
		for _, cl := range r[router].RouteMaps[nb.InMap].Clauses {
			if cl.Action == config.Permit {
				cl.SetLocalPref = uint32(200 + n)
			}
		}
	}}
}

func nullRouteEdit(router, subnet string) edit {
	return edit{"null-route", true, func(r map[string]*config.Router, n int) {
		r[router].Statics = append(r[router].Statics,
			&config.StaticRoute{Prefix: network.MustParsePrefix(subnet), Drop: true},
			&config.StaticRoute{Prefix: uniqueHost(n), Drop: true})
	}}
}

// fabricNet is the two-pod fat-tree: five routers in a line, every one
// its own AS, nothing filtered. All nine service checks have an answer by
// construction here.
func fabricNet() (*daemonNet, error) {
	ft, err := topogen.Generate(2)
	if err != nil {
		return nil, err
	}
	line := []string{topogen.ToRName(0, 0), topogen.AggName(0, 0), topogen.CoreName(0),
		topogen.AggName(1, 0), topogen.ToRName(1, 0)}
	near, far := topogen.ToRSubnet(0, 0).String(), topogen.ToRSubnet(1, 0).String()
	n := &daemonNet{name: "fabric-2", routers: ft.Routers}
	n.family = append(lineFamily(line, 0, near, true, 7), lineFamily(line, 4, far, true, 7)...)
	for _, check := range []string{"loops", "blackholes", "multipath-consistency", "mgmt-reachability"} {
		n.singles = append(n.singles, known{service.Spec{Check: check}, true})
	}
	n.singles = append(n.singles, known{service.Spec{Check: "no-leak", MaxLen: 32}, true})
	n.after = known{spec("reachability", line[4], "", near, 0), true}
	n.edits = []edit{localPrefEdit(line[4]), nullRouteEdit(line[4], near)}
	return n, nil
}

// figure2Net is the paper's running example: R2 — R1 — R3 with unfiltered
// external peers on R1 and R2, so a more specific external announcement
// can pull any internal destination away, and reachability fails.
func figure2Net() (*daemonNet, error) {
	n := &daemonNet{name: "figure2"}
	for _, t := range testnets.Figure2Texts() {
		r, err := config.Parse(t)
		if err != nil {
			return nil, err
		}
		n.routers = append(n.routers, r)
	}
	line := []string{"R2", "R1", "R3"}
	n.family = append(lineFamily(line, 2, "10.3.3.0/24", false, 5), lineFamily(line, 0, "10.2.2.0/24", false, 5)...)
	n.singles = []known{
		{service.Spec{Check: "mgmt-reachability"}, true}, // no management interface to hijack
		{service.Spec{Check: "no-leak", MaxLen: 32}, true},
		{service.Spec{Check: "no-leak", MaxLen: 16}, false}, // connected /24s and /30s are exported
	}
	n.after = known{spec("reachability", "R2", "", "10.3.3.0/24", 0), false}
	n.edits = []edit{costEdit("R1", "Eth1"), localPrefEdit("R1"), nullRouteEdit("R2", "10.3.3.0/24")}
	return n, nil
}

// generatedNet is one netgen network. Its borders filter external
// announcements for internal space unless the hijack bug is injected, so
// management reachability and internal reachability hold exactly when it
// is not; access routers hang off the cores, two hops from a border.
func generatedNet(size int) (*daemonNet, error) {
	g, err := drawNetwork(fmt.Sprintf("gen-%d", size), size)
	if err != nil {
		return nil, err
	}
	safe := !g.Bugs.HijackableMgmt
	n := &daemonNet{name: g.Name, routers: g.Routers}
	n.singles = []known{
		{service.Spec{Check: "mgmt-reachability"}, safe},
		{service.Spec{Check: "no-leak", MaxLen: 32}, true},
	}
	border, core := g.Borders[0], g.Cores[0]
	maxHops := len(g.Routers) + 2
	if maxHops > 8 {
		maxHops = 8
	}
	for i, access := range g.Access {
		subnet := fmt.Sprintf("10.%d.0.0/24", 10+i)
		n.family = append(n.family, lineFamily([]string{border, core, access}, 2, subnet, safe, maxHops)...)
		for j, other := range g.Access {
			if j != i {
				n.family = append(n.family, lineFamily([]string{other, core, access}, 2, subnet, safe, maxHops)...)
			}
		}
	}
	n.family = distinct(n.family)
	first, subnet := g.Access[0], "10.10.0.0/24"
	n.after = known{spec("reachability", border, "", subnet, 0), safe}
	n.edits = []edit{costEdit(first, "Eth0"), localPrefEdit(border), nullRouteEdit(border, subnet)}
	return n, nil
}

// request is one scripted POST /v1/verify.
type request struct {
	class string
	net   string
	known
	body []byte
}

type daemonInput struct {
	prime        []*request   // one per network, sent one at a time first
	streams      [][]*request // one per client, sent concurrently afterwards
	commentEdits int
}

func fileNames(routers []*config.Router) map[string]string {
	out := make(map[string]string, len(routers))
	for _, r := range routers {
		out[r.Name+".cfg"] = config.Print(r)
	}
	return out
}

func newRequest(class, net string, configs map[string]string, k known) (*request, error) {
	body, err := json.Marshal(service.Request{Configs: configs, Spec: k.spec})
	if err != nil {
		return nil, err
	}
	return &request{class: class, net: net, known: k, body: body}, nil
}

// edited applies one edit to a fresh copy of the network and prints it.
func (n *daemonNet) edited(e edit, serial int) (map[string]string, error) {
	copies := make([]*config.Router, len(n.routers))
	byName := make(map[string]*config.Router, len(n.routers))
	for i, r := range n.routers {
		c, err := config.Parse(config.Print(r))
		if err != nil {
			return nil, err
		}
		copies[i], byName[c.Name] = c, c
	}
	e.apply(byName, serial)
	return fileNames(copies), nil
}

func daemonNets(sc scale) ([]*daemonNet, error) {
	fab, err := fabricNet()
	if err != nil {
		return nil, err
	}
	fig, err := figure2Net()
	if err != nil {
		return nil, err
	}
	nets := []*daemonNet{fab, fig}
	for _, size := range sc.daemonSizes {
		n, err := generatedNet(size)
		if err != nil {
			return nil, err
		}
		nets = append(nets, n)
	}
	return nets, nil
}

// scriptDraw seeds the one draw of which questions the script asks.
const scriptDraw = 2017

// daemonSetup writes the script. Which requests it holds is fixed — how
// many of each class, on which network, asking what — because what a
// request costs depends on all of it: with the questions drawn by the
// seed, the median warm latency of ten seeds spread by 28 %. The seed
// draws the order of each client's requests, which earlier request a hit
// repeats and which file a comment lands in.
//
// A client repeats only requests it has itself completed, or the primed
// ones, so a hit never races the request it repeats; the two clients
// draw their new questions from disjoint halves of each network's pool,
// so a warm request is never answered from the other client's cache
// entry.
func daemonSetup(seed int64, sc scale) (any, error) {
	nets, err := daemonNets(sc)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	questions := rand.New(rand.NewSource(scriptDraw))
	in := &daemonInput{streams: make([][]*request, daemonClients)}
	base := map[string]map[string]string{}
	for _, n := range nets {
		base[n.name] = fileNames(n.routers)
		// Priming asks each network its first single: the first sight of a
		// configuration is a cold request.
		r, err := newRequest(classCold, n.name, base[n.name], n.singles[0])
		if err != nil {
			return nil, err
		}
		in.prime = append(in.prime, r)
	}

	perClient := sc.requests / daemonClients
	nHit := int(float64(perClient) * hitShare)
	nWarm := int(float64(perClient) * warmShare)
	nCold := perClient - nHit - nWarm
	serial := 0
	for c := 0; c < daemonClients; c++ {
		var fresh []*request
		// Warm: this client's half of every network's remaining singles,
		// then family questions drawn by the seed, network by network.
		type pool struct {
			n      *daemonNet
			family []known
		}
		pools := make([]*pool, len(nets))
		for i, n := range nets {
			p := &pool{n: n}
			for j, k := range n.family {
				if j%daemonClients == c {
					p.family = append(p.family, k)
				}
			}
			questions.Shuffle(len(p.family), func(a, b int) { p.family[a], p.family[b] = p.family[b], p.family[a] })
			p.family = byKindInTurn(p.family)
			pools[i] = p
			for j, k := range n.singles[1:] {
				if j%daemonClients == c && len(fresh) < nWarm {
					r, err := newRequest(classWarm, n.name, base[n.name], k)
					if err != nil {
						return nil, err
					}
					fresh = append(fresh, r)
				}
			}
		}
		for i, empty := 0, 0; len(fresh) < nWarm; i++ {
			p := pools[i%len(pools)]
			if len(p.family) == 0 {
				// A small network runs out of questions first; the others
				// take its turns.
				if empty++; empty == len(pools) {
					return nil, fmt.Errorf("daemon-mixed: too few known questions for %d requests", sc.requests)
				}
				continue
			}
			empty = 0
			k := p.family[0]
			p.family = p.family[1:]
			configs := base[p.n.name]
			if i%commentEveryN == commentEveryN-1 {
				serial++
				in.commentEdits++
				configs = make(map[string]string, len(configs))
				for name, text := range base[p.n.name] {
					configs[name] = text
				}
				name := p.n.routers[rng.Intn(len(p.n.routers))].Name + ".cfg"
				configs[name] += fmt.Sprintf("! reviewed in change %d\n", serial)
			}
			r, err := newRequest(classWarm, p.n.name, configs, k)
			if err != nil {
				return nil, err
			}
			fresh = append(fresh, r)
		}
		// Cold: semantic edits, network by network and edit by edit.
		for i := 0; i < nCold; i++ {
			n := nets[i%len(nets)]
			e := n.edits[(i/len(nets))%len(n.edits)]
			serial++
			configs, err := n.edited(e, serial)
			if err != nil {
				return nil, err
			}
			k := n.after
			if e.breaks {
				k.want = false
			}
			r, err := newRequest(classCold, n.name+" "+e.name, configs, k)
			if err != nil {
				return nil, err
			}
			fresh = append(fresh, r)
		}
		rng.Shuffle(len(fresh), func(a, b int) { fresh[a], fresh[b] = fresh[b], fresh[a] })

		// Interleave the hits: each repeats a request this client has
		// already completed (or a primed one).
		isHit := make([]bool, perClient)
		for i := 0; i < nHit; i++ {
			isHit[i] = true
		}
		rng.Shuffle(len(isHit), func(a, b int) { isHit[a], isHit[b] = isHit[b], isHit[a] })
		done := append([]*request(nil), in.prime...)
		for _, hit := range isHit {
			var r *request
			if hit {
				earlier := done[rng.Intn(len(done))]
				r = &request{class: classHit, net: earlier.net, known: earlier.known, body: earlier.body}
			} else {
				r, fresh = fresh[0], fresh[1:]
				done = append(done, r)
			}
			in.streams[c] = append(in.streams[c], r)
		}
	}
	return in, nil
}

func daemonPass(input any, tr *tracer) *passResult {
	in := input.(*daemonInput)
	p := newPassResult(tr)
	eng := service.NewEngine(service.Options{Workers: daemonClients})
	defer eng.Close()
	srv := httptest.NewServer(service.NewHandler(eng))
	defer srv.Close()
	d := &driver{p: p, url: srv.URL, client: srv.Client()}

	// Each sender gets a root span of its own: the clients overlap, so
	// their spans cannot nest under one parent without counting the same
	// second twice.
	start := time.Now()
	root := tr.begin("bench.prime", -1, -1)
	for _, r := range in.prime {
		d.do(r, root)
	}
	tr.end(root)
	var wg sync.WaitGroup
	for _, stream := range in.streams {
		wg.Add(1)
		go func(stream []*request) {
			defer wg.Done()
			root := tr.begin("bench.client", -1, -1)
			for _, r := range stream {
				d.do(r, root)
			}
			tr.end(root)
		}(stream)
	}
	wg.Wait()
	p.wall = time.Since(start)

	t := eng.Trace()
	for _, name := range []string{"service.cache_hits", "service.session_reuse", "service.compile_reuse",
		"service.compiles", "service.fastpath_hits", "service.fastpath_residue"} {
		p.c[name] = float64(t.Counter(name))
	}
	p.c["service.networks"], _ = t.GaugeValue("service.networks")
	// Only a comment-only edit may compile to a system the daemon already
	// has; a semantic edit that did was not the cold request it stands for.
	if got := t.Counter("service.compile_reuse"); got != int64(in.commentEdits) {
		p.fail("daemon reused %d compiled networks, the script has %d comment-only edits", got, in.commentEdits)
	}
	return p
}

// driver sends the script's requests; its methods are safe for the
// concurrent clients.
type driver struct {
	p      *passResult
	url    string
	client *http.Client
	mu     sync.Mutex // guards p and next
	next   int        // query ids, one per request
}

func (d *driver) post(r *request) (*service.Verdict, time.Duration, error) {
	start := time.Now()
	resp, err := d.client.Post(d.url+"/v1/verify", "application/json", bytes.NewReader(r.body))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	wall := time.Since(start)
	if err != nil {
		return nil, wall, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, wall, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var v service.Verdict
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, wall, err
	}
	return &v, wall, nil
}

func (d *driver) jobView(id string) (service.View, error) {
	var view service.View
	resp, err := d.client.Get(d.url + "/v1/jobs/" + id)
	if err != nil {
		return view, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return view, fmt.Errorf("job %s: status %d", id, resp.StatusCode)
	}
	return view, json.NewDecoder(resp.Body).Decode(&view)
}

func ms(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }

// do sends one request, checks the verdict against the known answer and,
// in a traced pass, asks the daemon how long the job queued and ran.
func (d *driver) do(r *request, root int) {
	d.mu.Lock()
	query := d.next
	d.next++
	d.mu.Unlock()
	id := d.p.tr.begin("service.request", root, query)
	v, wall, err := d.post(r)
	d.p.tr.end(id)
	var view service.View
	if err == nil && d.p.tr != nil {
		view, err = d.jobView(v.JobID)
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.p
	p.attempted++
	p.samples = append(p.samples, sample{r.class, wall})
	p.c["service.requests"]++
	p.c["service.request_s"] += wall.Seconds()
	what := fmt.Sprintf("%s %s %+v", r.class, r.net, r.spec)
	switch {
	case err != nil:
		p.fail("%s: %v", what, err)
		return
	case v.Budget != nil:
		p.fail("%s: undecided, budget exceeded", what)
		return
	case v.Verified != r.want:
		p.fail("%s: verified=%v, known answer %v", what, v.Verified, r.want)
	case v.Cached != (r.class == classHit):
		p.fail("%s: cached=%v", what, v.Cached)
	}
	if p.tr == nil {
		return
	}

	// What the daemon reports of the job, laid under the request in the
	// order it happens; what is left of the request is the HTTP layer's,
	// what is left of the run the service's own (parsing, graph, encoding
	// the network). A cached verdict repeats the original's figures and
	// books nothing.
	queued, run := ms(view.QueuedMs), ms(view.RunMs)
	p.c["service.queued_s"] += queued.Seconds()
	p.c["service.run_s"] += run.Seconds()
	phases := []phase{{"service.queue", queued}}
	if !v.Cached {
		setup := v.Cost.Find("session-setup").TotalWall()
		p.c["core.session_setup_s"] += setup.Seconds()
		p.c["core.session_check_s"] += v.Cost.Find("goal").TotalWall().Seconds()
		inside := []phase{
			{"tiered.decide", ms(v.FastPathMs)},
			{"core.session_setup", setup},
			{"smt.blast", ms(v.EncodeMs)},
			{"smt.simplify", ms(v.SimplifyMs)},
			{"sat.solve", ms(v.SolveMs)},
		}
		for _, ph := range inside {
			if ph.name != "core.session_setup" {
				p.c[ph.name+"_s"] += ph.d.Seconds()
			}
			run -= ph.d
		}
		phases = append(phases, inside...)
		p.c["smt.sat_vars"] += float64(v.SATVars)
		p.c["smt.sat_clauses"] += float64(v.SATClauses)
		if st := v.Solver; st != nil {
			p.c["sat.conflicts"] += float64(st.Conflicts)
			p.c["sat.propagations"] += float64(st.Propagations)
			p.c["sat.work_units"] += float64(st.Conflicts + st.Decisions + st.Propagations)
		}
	}
	p.tr.derive(id, query, append(phases, phase{"service.run", run}))
}

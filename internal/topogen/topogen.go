// Package topogen generates synthetic data-center networks: k-ary
// folded-Clos (fat-tree) fabrics running eBGP with multipath, structured
// like the §8.2 benchmarks ("similar to those described in Propane").
//
// A k-pod fabric has k pods of k/2 top-of-rack and k/2 aggregation
// routers plus (k/2)² cores — 5k²/4 routers total, matching the paper's
// 5(2), 45(6), 125(10), 245(14), 405(18) routers(pods) series. Every
// router speaks eBGP in its own private AS; each ToR originates a /24;
// cores peer with an external backbone behind an inbound route filter.
package topogen

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/network"
)

// FatTree describes one generated fabric.
type FatTree struct {
	K       int // number of pods (even)
	Routers []*config.Router
	// ToRs[p] lists the ToR router names of pod p; Aggs likewise. Cores
	// lists the core routers.
	ToRs  [][]string
	Aggs  [][]string
	Cores []string
}

// backboneASN is the AS of the external backbone behind every core.
const backboneASN = 65000

// ToRSubnet returns the /24 advertised by ToR t of pod p.
func ToRSubnet(p, t int) network.Prefix {
	return network.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", p, t))
}

// ToRName, AggName and CoreName name fabric routers.
func ToRName(p, t int) string   { return fmt.Sprintf("tor-%d-%d", p, t) }
func AggName(p, a int) string   { return fmt.Sprintf("agg-%d-%d", p, a) }
func CoreName(c int) string     { return fmt.Sprintf("core-%d", c) }
func BackboneName(c int) string { return fmt.Sprintf("bb-%d", c) }

// builder allocates point-to-point /30 subnets and assembles router
// configuration text.
type builder struct {
	nextLink uint32
	cfgs     map[string]*routerDraft
	order    []string
}

type routerDraft struct {
	name       string
	asn        uint32
	ifaces     []string
	bgpLines   []string
	extraLines []string
	nIface     int
}

func (b *builder) router(name string, asn uint32) *routerDraft {
	if d, ok := b.cfgs[name]; ok {
		return d
	}
	d := &routerDraft{name: name, asn: asn}
	b.cfgs[name] = d
	b.order = append(b.order, name)
	return d
}

// linkSubnet allocates the next /30 from 172.16.0.0/12.
func (b *builder) linkSubnet() (network.IP, network.IP) {
	base := uint32(network.MustParseIP("172.16.0.0")) + b.nextLink*4
	b.nextLink++
	return network.IP(base + 1), network.IP(base + 2)
}

// connect wires two routers with a /30 and reciprocal eBGP sessions.
func (b *builder) connect(a, z *routerDraft) {
	ipA, ipZ := b.linkSubnet()
	ifA := fmt.Sprintf("Eth%d", a.nIface)
	ifZ := fmt.Sprintf("Eth%d", z.nIface)
	a.nIface++
	z.nIface++
	a.ifaces = append(a.ifaces, fmt.Sprintf("interface %s\n ip address %v 255.255.255.252\n!", ifA, ipA))
	z.ifaces = append(z.ifaces, fmt.Sprintf("interface %s\n ip address %v 255.255.255.252\n!", ifZ, ipZ))
	a.bgpLines = append(a.bgpLines, fmt.Sprintf(" neighbor %v remote-as %d", ipZ, z.asn))
	z.bgpLines = append(z.bgpLines, fmt.Sprintf(" neighbor %v remote-as %d", ipA, a.asn))
}

// external wires a router to a named external backbone neighbor, with an
// inbound filter blocking fabric address space.
func (b *builder) external(r *routerDraft, name string, asn uint32, filter bool) {
	ipR, ipX := b.linkSubnet()
	ifR := fmt.Sprintf("Ext%d", r.nIface)
	r.nIface++
	r.ifaces = append(r.ifaces, fmt.Sprintf("interface %s\n ip address %v 255.255.255.252\n!", ifR, ipR))
	r.bgpLines = append(r.bgpLines,
		fmt.Sprintf(" neighbor %v remote-as %d", ipX, asn),
		fmt.Sprintf(" neighbor %v description %s", ipX, name))
	if filter {
		r.bgpLines = append(r.bgpLines, fmt.Sprintf(" neighbor %v route-map BLOCK-FABRIC in", ipX))
		r.extraLines = append(r.extraLines,
			"ip prefix-list FABRIC seq 5 deny 10.0.0.0/8 le 32",
			"ip prefix-list FABRIC seq 10 deny 172.16.0.0/12 le 32",
			"ip prefix-list FABRIC seq 15 permit 0.0.0.0/0 le 32",
			"!",
			"route-map BLOCK-FABRIC permit 10",
			" match ip address prefix-list FABRIC",
			"!",
		)
	}
}

func (d *routerDraft) text(networks []network.Prefix, multipath int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "hostname %s\n!\n", d.name)
	for _, i := range d.ifaces {
		sb.WriteString(i + "\n")
	}
	fmt.Fprintf(&sb, "router bgp %d\n", d.asn)
	for _, l := range d.bgpLines {
		sb.WriteString(l + "\n")
	}
	for _, n := range networks {
		fmt.Fprintf(&sb, " network %v mask %v\n", n.Addr, network.MaskOf(n.Len))
	}
	if multipath > 1 {
		fmt.Fprintf(&sb, " maximum-paths %d\n", multipath)
	}
	sb.WriteString("!\n")
	for _, l := range d.extraLines {
		sb.WriteString(l + "\n")
	}
	return sb.String()
}

// Generate builds a k-pod fat-tree (k even, ≥ 2).
func Generate(k int) (*FatTree, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topogen: pod count %d must be even and ≥ 2", k)
	}
	half := k / 2
	b := &builder{cfgs: map[string]*routerDraft{}}
	ft := &FatTree{K: k}

	// Internal ASNs count up from the private range; the backbone AS
	// (65000) is skipped so no fabric router ever collides with it — a
	// collision would make cores see two neighbors in one AS, activating
	// MED comparison the fabric never asked for.
	asn := uint32(64512)
	nextASN := func() uint32 {
		asn++
		if asn == backboneASN {
			asn++
		}
		return asn
	}

	// Cores.
	cores := make([]*routerDraft, half*half)
	for c := range cores {
		cores[c] = b.router(CoreName(c), nextASN())
		ft.Cores = append(ft.Cores, cores[c].name)
	}
	// Pods.
	for p := 0; p < k; p++ {
		var torNames, aggNames []string
		aggs := make([]*routerDraft, half)
		for a := 0; a < half; a++ {
			aggs[a] = b.router(AggName(p, a), nextASN())
			aggNames = append(aggNames, aggs[a].name)
		}
		for t := 0; t < half; t++ {
			tor := b.router(ToRName(p, t), nextASN())
			torNames = append(torNames, tor.name)
			// ToR hosts its /24.
			sub := ToRSubnet(p, t)
			tor.ifaces = append(tor.ifaces, fmt.Sprintf("interface Hosts0\n ip address %v 255.255.255.0\n!",
				sub.Addr+1))
			for a := 0; a < half; a++ {
				b.connect(tor, aggs[a])
			}
		}
		// Aggregation to core: agg a connects to cores [a*half, (a+1)*half).
		for a := 0; a < half; a++ {
			for c := a * half; c < (a+1)*half; c++ {
				b.connect(aggs[a], cores[c])
			}
		}
		ft.ToRs = append(ft.ToRs, torNames)
		ft.Aggs = append(ft.Aggs, aggNames)
	}
	// External backbone behind every core.
	for c, core := range cores {
		b.external(core, BackboneName(c), backboneASN, true)
	}

	// Render and parse.
	for _, name := range b.order {
		d := b.cfgs[name]
		var nets []network.Prefix
		if strings.HasPrefix(name, "tor-") {
			var p, t int
			fmt.Sscanf(name, "tor-%d-%d", &p, &t)
			nets = []network.Prefix{ToRSubnet(p, t)}
		}
		text := d.text(nets, 4)
		r, err := config.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("topogen: generated config invalid: %w\n%s", err, text)
		}
		ft.Routers = append(ft.Routers, r)
	}
	return ft, nil
}

// NumRouters returns the fabric size for a pod count, 5k²/4.
func NumRouters(k int) int { return 5 * k * k / 4 }

// AllToRs flattens the ToR names.
func (ft *FatTree) AllToRs() []string {
	var out []string
	for _, pod := range ft.ToRs {
		out = append(out, pod...)
	}
	return out
}

// Command simulate runs the concrete control-plane simulator (the
// Batfish-style per-environment oracle) on a directory of configurations:
// given one destination and one environment, it prints every router's
// installed route and walks a packet through the data plane.
//
// Usage:
//
//	simulate -configs DIR -dst 10.0.0.1 -from R1 \
//	    [-announce "N1=8.8.8.0/24@2"]... [-fail R1,R2]... [-fail-ext R2,N1]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/config"
	"repro/internal/network"
	"repro/internal/pipeline"
	"repro/internal/simulator"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, " ") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var (
		configDir = flag.String("configs", "", "directory of router configuration files")
		dstFlag   = flag.String("dst", "", "destination IP")
		from      = flag.String("from", "", "source router for the forwarding walk")
		announces multiFlag
		fails     multiFlag
		failExts  multiFlag
	)
	flag.Var(&announces, "announce", "external announcement PEER=PREFIX@PATHLEN (repeatable)")
	flag.Var(&fails, "fail", "failed internal link A,B (repeatable)")
	flag.Var(&failExts, "fail-ext", "failed external link ROUTER,PEER (repeatable)")
	flag.Parse()
	if *configDir == "" || *dstFlag == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*configDir, *dstFlag, *from, announces, fails, failExts); err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
}

func run(dir, dstFlag, from string, announces, fails, failExts []string) error {
	configs, err := pipeline.ReadDir(dir)
	if err != nil {
		return err
	}
	net, err := pipeline.Load(configs)
	if err != nil {
		return err
	}
	g := net.Graph
	dst, err := network.ParseIP(dstFlag)
	if err != nil {
		return err
	}
	env := simulator.NewEnvironment()
	for _, a := range announces {
		peer, rest, ok := strings.Cut(a, "=")
		if !ok {
			return fmt.Errorf("bad -announce %q (want PEER=PREFIX@PATHLEN)", a)
		}
		prefixStr, lenStr, _ := strings.Cut(rest, "@")
		p, err := network.ParsePrefix(prefixStr)
		if err != nil {
			return err
		}
		pathLen := 1
		if lenStr != "" {
			pathLen, err = strconv.Atoi(lenStr)
			if err != nil {
				return fmt.Errorf("bad path length in %q", a)
			}
		}
		env.Announce(peer, simulator.Announcement{Prefix: p, PathLen: pathLen})
	}
	for _, f := range fails {
		a, b, ok := strings.Cut(f, ",")
		if !ok {
			return fmt.Errorf("bad -fail %q (want A,B)", f)
		}
		env.Fail(a, b)
	}
	for _, f := range failExts {
		r, p, ok := strings.Cut(f, ",")
		if !ok {
			return fmt.Errorf("bad -fail-ext %q (want ROUTER,PEER)", f)
		}
		env.FailExternal(r, p)
	}

	sim := simulator.New(g)
	res, err := sim.Run(dst, env)
	if err != nil {
		return err
	}
	fmt.Printf("destination %v, environment: %v\n\nFIB entries:\n", dst, env)
	names := make([]string, 0, len(res.States))
	for n := range res.States {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Println("  " + simulator.FIBEntry(res, n))
	}
	exts := make([]string, 0, len(res.ExportsToExt))
	for n := range res.ExportsToExt {
		exts = append(exts, n)
	}
	sort.Strings(exts)
	for _, n := range exts {
		if rec := res.ExportsToExt[n]; rec.Valid {
			fmt.Printf("  export to %s: %v\n", n, rec)
		}
	}
	if from != "" {
		w := sim.Walk(res, from, config.Packet{DstIP: dst, Protocol: 6, DstPort: 80})
		fmt.Printf("\nwalk from %s: %v\n", from, w)
		for _, p := range w.Paths {
			fmt.Println("  " + strings.Join(p, " -> "))
		}
	}
	return nil
}

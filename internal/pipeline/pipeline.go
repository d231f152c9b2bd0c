// Package pipeline owns the path from configuration text to verdict.
// Every surface — the minesweeper CLI, the minesweeperd engine, the
// evaluation harness, the bench experiments and the fuzz oracles — asks
// its question the same way: Load the network, state the question as a
// tiered.Goal (Spec.Goal for request-shaped input), and call Run, which
// tries the graph tier, then the modular composition, then the
// monolithic solver, in that fixed cheap-first order. Each step returns
// a verdict or named residue that the next step inherits.
//
// Property is the one place a goal becomes a property term and its
// assumptions; Spec.Goal the one place a request becomes a goal; Report
// the one JSON rendering of a verdict.
package pipeline

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/config"
	"repro/internal/modular"
	"repro/internal/protograph"
	"repro/internal/tiered"
)

// Network is a loaded network: the parsed configurations, the protocol
// graph built from them, and the per-network artifacts the steps of Run
// share between queries — the graph tier's analysis and the modular
// partition, each built on first use.
type Network struct {
	Routers []*config.Router
	Graph   *protograph.Graph

	analysisOnce sync.Once
	analysis     *tiered.Analysis
	cutOnce      sync.Once
	cut          *modular.Cut
}

// ReadDir reads the configuration files (*.cfg, *.conf) of a directory
// into the name → text form Parse and Load take.
func ReadDir(dir string) (map[string]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	configs := map[string]string{}
	for _, e := range entries {
		if e.IsDir() || !(strings.HasSuffix(e.Name(), ".cfg") || strings.HasSuffix(e.Name(), ".conf")) {
			continue
		}
		text, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		configs[e.Name()] = string(text)
	}
	if len(configs) == 0 {
		return nil, fmt.Errorf("pipeline: no .cfg/.conf files in %s", dir)
	}
	return configs, nil
}

// Parse parses a set of configuration files (name → text) in name order.
func Parse(configs map[string]string) ([]*config.Router, error) {
	names := make([]string, 0, len(configs))
	for n := range configs {
		names = append(names, n)
	}
	sort.Strings(names)
	routers := make([]*config.Router, 0, len(names))
	for _, n := range names {
		r, err := config.Parse(configs[n])
		if err != nil {
			return nil, requestErrorf("pipeline: parse %s: %w", n, err)
		}
		routers = append(routers, r)
	}
	return routers, nil
}

// Build infers the topology of parsed routers and builds their protocol
// graph.
func Build(routers []*config.Router) (*Network, error) {
	topo, err := config.BuildTopology(routers)
	if err != nil {
		return nil, requestErrorf("pipeline: topology: %w", err)
	}
	byName := make(map[string]*config.Router, len(routers))
	for _, r := range routers {
		byName[r.Name] = r
	}
	g, err := protograph.Build(topo, byName)
	if err != nil {
		return nil, requestErrorf("pipeline: graph: %w", err)
	}
	return &Network{Routers: routers, Graph: g}, nil
}

// Load is Parse followed by Build.
func Load(configs map[string]string) (*Network, error) {
	routers, err := Parse(configs)
	if err != nil {
		return nil, err
	}
	return Build(routers)
}

// Analysis returns the network's graph-tier analysis, built once.
func (n *Network) Analysis() *tiered.Analysis {
	n.analysisOnce.Do(func() { n.analysis = tiered.NewAnalysis(n.Graph) })
	return n.analysis
}

// Cut returns the network's modular partition (independent of any goal),
// built once.
func (n *Network) Cut() *modular.Cut {
	n.cutOnce.Do(func() { n.cut = modular.Partition(n.Graph) })
	return n.cut
}

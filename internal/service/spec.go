// Package service runs verification queries as jobs: a bounded worker
// pool parses configurations, encodes each distinct network once, keeps a
// long-lived incremental solver session per network, and answers
// (network, property) jobs from a content-addressed verdict cache. An
// edited copy of a held network answers its first solver question on a
// fresh solver and keeps a session only from its second. The HTTP daemon
// (cmd/minesweeperd) is a thin layer over this package.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/config"
	"repro/internal/pipeline"
)

// Spec names one property query; it is the pipeline's request type, so a
// daemon request, a CLI invocation and a corpus check are the same value
// and reach a goal through the same mapping (pipeline.Spec.Goal).
type Spec = pipeline.Spec

// Request is one verification job: the network's configurations plus the
// property spec (spec fields are inlined, so a request reads
// {"configs": {...}, "check": "reachability", "src": "R1", ...}).
type Request struct {
	// Configs maps a router file name to its configuration text.
	Configs map[string]string `json:"configs"`
	Spec
	// TimeoutMs overrides the engine's per-job timeout when positive.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// configHash is the content address of a network: a digest over the
// sorted (name, text) configuration pairs. Jobs with equal hashes share
// one encoded model and one solver session.
func configHash(configs map[string]string) string {
	names := make([]string, 0, len(configs))
	for n := range configs {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		// Length-prefix both fields so (name, text) pairs cannot
		// alias across boundaries.
		fmt.Fprintf(h, "%d:%s%d:", len(n), n, len(configs[n]))
		h.Write([]byte(configs[n]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// parseDigest is the content address of a parsed network: a digest over
// every exported field of every router, in file-name order
// (encoding/json sorts map keys, so equal parses marshal equally). The
// protocol graph, the model, the ACLs and every instrumentation a
// property adds are functions of the parse alone, so config sets with
// equal digests share one network entry outright — a comment-only or
// formatting edit does, and no semantic edit can.
func parseDigest(routers []*config.Router) (string, error) {
	b, err := json.Marshal(routers)
	if err != nil {
		return "", fmt.Errorf("service: digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// wiringDigest is the content address of a parsed network's wiring: the
// router names and each router's interface names, addresses and
// prefixes, in file-name order. A link-cost, local-pref, ACL or static
// route edit leaves it alone, so a network whose parse is new but whose
// wiring digest is held is an edited copy of a held network.
func wiringDigest(routers []*config.Router) string {
	h := sha256.New()
	for _, r := range routers {
		fmt.Fprintf(h, "router %q\n", r.Name)
		for _, ifc := range r.Interfaces {
			fmt.Fprintf(h, "interface %q %v %v\n", ifc.Name, ifc.Addr, ifc.Prefix)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cacheKey addresses one verdict: the network's config hash plus the
// normalized spec (which includes the environment bound MaxFailures).
func cacheKey(netKey string, s Spec) string {
	b, _ := json.Marshal(s.Normalize())
	h := sha256.New()
	fmt.Fprintf(h, "%s|", netKey)
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

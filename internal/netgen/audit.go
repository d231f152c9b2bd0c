package netgen

import (
	"fmt"
	"math/rand"
)

// auditPinnedFrom is the smallest size at which every audit profile can
// be generated (two borders, two cores and two access routers fit).
const auditPinnedFrom = 6

// Audit draws the network of the given size that the repository
// benchmark's enterprise-audit workload audits (benchmarks/e2e/audit.go,
// drawNetwork), from the same seed: size itself. From auditPinnedFrom
// routers on, the size fixes a profile — which bugs are injected, one
// border or two, a static route or none — with the bugs forced through
// the generator's probabilities and its two coin flips redrawn until they
// match. Below that one fixed draw is taken. The network is named
// "net<size>"; the name reaches no router configuration.
func Audit(size int) (*Network, error) {
	name := fmt.Sprintf("net%d", size)
	rng := rand.New(rand.NewSource(int64(size)))
	p := DefaultParams()
	p.MinRouters, p.MaxRouters = size, size
	if size < auditPinnedFrom {
		return Generate(name, rng.Int63(), p)
	}
	k := size - auditPinnedFrom
	prob := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	p.PHijack, p.PACLException, p.PDeepDrop = prob(k%2 == 0), prob(k%5 == 1), prob(k%6 == 2)
	twoBorders, static := (k/2)%2 == 0, (k/3)%2 == 0
	for {
		n, err := Generate(name, rng.Int63(), p)
		if err != nil {
			return nil, err
		}
		if (len(n.Borders) == 2) == twoBorders && hasStatic(n) == static {
			return n, nil
		}
	}
}

// hasStatic reports whether some router has a forwarding (non-null0)
// static route.
func hasStatic(n *Network) bool {
	for _, r := range n.Routers {
		for _, s := range r.Statics {
			if !s.Drop {
				return true
			}
		}
	}
	return false
}

package modular

import (
	"bytes"

	"repro/internal/network"
	"repro/internal/protograph"
	"repro/internal/tiered"
)

// pairwiseRelations is the relation writer (*canon).relations replaced:
// the full comparison matrix over the value pool — every pair's address
// order and containment both ways, one line per pair. It stays as the
// reference the new form is held to: two pools must get equal output
// from one writer exactly when they get equal output from the other.
func (c *canon) pairwiseRelations() {
	for i, p := range c.vals {
		c.emit("val %d len=%d", i, p.Len)
	}
	for i := 0; i < len(c.vals); i++ {
		for j := i + 1; j < len(c.vals); j++ {
			a, b := c.vals[i], c.vals[j]
			cmp := 0
			if a.Addr < b.Addr {
				cmp = -1
			} else if a.Addr > b.Addr {
				cmp = 1
			}
			c.emit("rel %d %d cmp=%d ab=%v ba=%v", i, j, cmp, a.Covers(b), b.Covers(a))
		}
	}
}

// PairwiseClassKey is the class key computed with the pairwise matrix.
// It leaves cp.Vals as classKey does (the pool does not depend on the
// relation writer).
func PairwiseClassKey(g *protograph.Graph, cp *CompPlan, goal tiered.Goal) string {
	return classKeyWith(g, cp, goal, (*canon).pairwiseRelations)
}

// Relations returns what each relation writer emits for a value pool
// built by inserting vals in order (duplicates collapse, as in a key).
func Relations(vals []network.Prefix) (current, pairwise string) {
	render := func(write func(*canon)) string {
		var buf bytes.Buffer
		c := newCanon(&buf, nil)
		for _, v := range vals {
			c.v(v)
		}
		write(c)
		return buf.String()
	}
	return render((*canon).relations), render((*canon).pairwiseRelations)
}

// BFS01 exposes bfs01 to the external tests.
func BFS01(g *protograph.Graph, sources []string) map[string]int {
	dist := map[string]int{}
	bfs01(g, sources, dist)
	return dist
}

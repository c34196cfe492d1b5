package vfg

import (
	"fmt"
	"sort"
	"strings"

	"github.com/valueflow/usher/internal/ir"
)

// Equivalence partitions VFG nodes into access-equivalence classes: nodes
// whose dependence edges are identical (same targets, kinds and call
// sites) necessarily resolve to the same definedness, so resolution can
// run once per class. This is the node-merging technique of Hardekopf &
// Lin that the paper applies to its VFGs (§4.1).
type Equivalence struct {
	rep []int // node id -> representative node id
	// classUsers[repID] is the union of the user edges of every class
	// member (targets not remapped; push remaps).
	classUsers [][]Edge
	classes    int
}

// Rep returns the representative node id of n.
func (eq *Equivalence) Rep(id int) int { return eq.rep[id] }

// Classes returns the number of equivalence classes among mergeable
// nodes.
func (eq *Equivalence) Classes() int { return eq.classes }

// Merged returns how many nodes were merged away.
func (eq *Equivalence) Merged(g *Graph) int { return len(g.Nodes) - eq.classes }

// ComputeAccessEquivalence builds the partition. Root nodes are never
// merged.
func ComputeAccessEquivalence(g *Graph) *Equivalence {
	eq := &Equivalence{
		rep:        make([]int, len(g.Nodes)),
		classUsers: make([][]Edge, len(g.Nodes)),
	}
	byKey := make(map[string]int)
	// Call-site identities must be global: instruction labels are only
	// unique per function.
	siteIDs := make(map[*ir.Call]int)
	siteID := func(c *ir.Call) int {
		if id, ok := siteIDs[c]; ok {
			return id
		}
		id := len(siteIDs) + 1
		siteIDs[c] = id
		return id
	}
	for _, n := range g.Nodes {
		if n.Kind == NodeRootT || n.Kind == NodeRootF {
			eq.rep[n.ID] = n.ID
			eq.classes++
			continue
		}
		key := depKey(n, siteID)
		if rep, ok := byKey[key]; ok {
			eq.rep[n.ID] = rep
		} else {
			byKey[key] = n.ID
			eq.rep[n.ID] = n.ID
			eq.classes++
		}
	}
	for _, n := range g.Nodes {
		r := eq.rep[n.ID]
		eq.classUsers[r] = append(eq.classUsers[r], n.Users...)
	}
	return eq
}

// depKey canonically encodes a node's dependence edges.
func depKey(n *Node, siteID func(*ir.Call) int) string {
	parts := make([]string, len(n.Deps))
	for i, e := range n.Deps {
		site := -1
		if e.Site != nil {
			site = siteID(e.Site)
		}
		parts[i] = fmt.Sprintf("%d:%d:%d", e.To.ID, e.Kind, site)
	}
	sort.Strings(parts)
	// Distinguish kinds so a register never merges with a memory version
	// of a different function (harmless but confusing in reports).
	return fmt.Sprintf("%d|%s", n.Kind, strings.Join(parts, ","))
}

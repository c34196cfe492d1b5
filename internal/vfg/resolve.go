package vfg

import (
	"slices"

	"github.com/valueflow/usher/internal/bitset"
	"github.com/valueflow/usher/internal/ir"
)

// State is the resolved definedness of a node: Top (⊤, provably defined)
// or Bottom (⊥, possibly undefined).
type State bool

// Definedness states.
const (
	Top    State = false // reachable only from T
	Bottom State = true  // reachable from F
)

func (s State) String() string {
	if s == Bottom {
		return "⊥"
	}
	return "⊤"
}

// Gamma maps VFG nodes to their definedness. The ⊥ set is a dense bit
// set over node ids, one word per 64 nodes (the shared internal/bitset
// package, also the pointer solver's points-to representation).
type Gamma struct {
	g      *Graph
	n      int // node count at resolution time
	bottom *bitset.Set
	// eq is set when resolution ran over access-equivalence classes.
	eq *Equivalence
}

// Of returns the state of n. Nodes unknown to the resolution (nil, or
// created after it — impossible on sealed graphs) are conservatively ⊥.
func (gm *Gamma) Of(n *Node) State {
	if n == nil {
		return Bottom
	}
	id := n.ID
	if gm.eq != nil {
		id = gm.eq.Rep(id)
	}
	if id >= gm.n || gm.bottom.Has(id) {
		return Bottom
	}
	return Top
}

// OfValue returns the state of an operand: constants and addresses are ⊤.
func (gm *Gamma) OfValue(v ir.Value) State {
	if r, ok := v.(*ir.Register); ok {
		// An unmodelled register (nil node) is conservatively ⊥.
		return gm.Of(gm.g.RegNode(r))
	}
	return Top
}

// NewGammaFromBits reconstructs a Γ from a previously exported ⊥ bit
// vector over g's node ids (see BottomBits). The caller asserts that the
// bits were resolved against a graph with identical node numbering — the
// snapshot warm-start path guarantees it by keying on the program
// fingerprint and re-checking the node count.
func NewGammaFromBits(g *Graph, bottom *bitset.Set) *Gamma {
	return &Gamma{g: g, n: len(g.Nodes), bottom: bottom}
}

// BottomBits exposes the ⊥ set as a dense bit vector over node ids, or
// nil when the resolution ran over merged equivalence classes (the bits
// then live on class representatives and are not meaningful per node).
// The returned set must be treated as read-only.
func (gm *Gamma) BottomBits() *bitset.Set {
	if gm.eq != nil {
		return nil
	}
	return gm.bottom
}

// NodeCount returns the node count the resolution ran against.
func (gm *Gamma) NodeCount() int { return gm.n }

// BottomCount returns the number of ⊥ nodes.
func (gm *Gamma) BottomCount() int {
	if gm.eq == nil {
		return gm.bottom.Count()
	}
	// Under merging, ⊥ bits live on class representatives; count members.
	n := 0
	for _, node := range gm.g.Nodes {
		if gm.Of(node) == Bottom {
			n++
		}
	}
	return n
}

// ctx is a resolution context: the call site through which undefinedness
// entered the current function, or unknown (the widened top context).
const ctxUnknown = 0

// ctxChunkRows is the number of per-node context rows allocated at once.
const ctxChunkRows = 256

// ResolveOptions tunes definedness resolution.
type ResolveOptions struct {
	// ContextInsensitive disables call/return edge matching (ablation of
	// §3.3's context sensitivity): every interprocedural edge is treated
	// like an intraprocedural one.
	ContextInsensitive bool
	// MergeEquivalent resolves over access-equivalence classes instead of
	// individual nodes (the node-merging of §4.1). The resulting Γ is
	// identical; resolution visits fewer states.
	MergeEquivalent bool
	// Cut filters dependence edges: an edge (from, to) for which it
	// returns true is treated as replaced by from → T (Opt II's
	// Algorithm 1 rewiring).
	Cut func(from, to *Node) bool
	// Cuts is Cut as a precomputed edge set (see NewCutSet): resolution
	// tests one bit per traversed edge instead of calling a predicate.
	// Cut and Cuts compose: an edge is cut if either cuts it.
	Cuts *CutSet
}

// Resolve computes Γ by forward reachability from the F root along user
// edges, matching call and return edges with 1-callsite context
// sensitivity (§3.3): a flow that entered a callee through call site c may
// leave it only through c's return edges. The unknown context subsumes
// every specific context.
func Resolve(g *Graph) *Gamma { return ResolveWith(g, ResolveOptions{}) }

// ResolveCut is Resolve with an edge filter (see ResolveOptions.Cut).
func ResolveCut(g *Graph, cut func(from, to *Node) bool) *Gamma {
	return ResolveWith(g, ResolveOptions{Cut: cut})
}

// ResolveWith is the general entry point.
//
// The propagation state is kept in dense bit sets rather than per-node
// maps: the ⊥ frontier is one bit per node, the visited-in-unknown-context
// set is one bit per node, and the visited-in-specific-context sets are
// per-node rows of context bits, allocated only for nodes that are ever
// reached under a specific call-site context. Contexts are the site ids
// stamped on the edges, so no traversed edge costs a map probe.
// Resolution performs no allocation proportional to the number of (node,
// context) visits and never mutates the graph, so it may run concurrently
// over a shared graph.
func ResolveWith(g *Graph, opts ResolveOptions) *Gamma {
	cut, cuts := opts.Cut, opts.Cuts
	nn := len(g.Nodes)
	gm := &Gamma{g: g, n: nn, bottom: bitset.New(nn)}

	// Access-equivalence merging: resolve per class representative.
	// Edge cuts key on individual nodes, so merging is disabled under
	// them (Opt II re-resolution).
	var eq *Equivalence
	if opts.MergeEquivalent && cut == nil && cuts == nil {
		eq = ComputeAccessEquivalence(g)
		gm.eq = eq
	}

	// Context ids: 0 = unknown, otherwise the graph's dense call-site id.
	numCtx := g.numSites + 1

	type state struct {
		node int32
		ctx  int32
	}
	// Visited sets: ctxUnknown subsumes every specific context. A node's
	// specific contexts are a row of wpn words, allocated on its first
	// specific-context visit from chunks of ctxChunkRows rows, so rows are
	// never copied as they accumulate; ctxRow[id] is 1 + the node's row
	// number, 0 for none.
	visitedUnknown := bitset.New(nn)
	wpn := (numCtx + 63) >> 6
	ctxRow := make([]int32, nn)
	var ctxChunks [][]uint64
	rows := 0
	var work []state
	push := func(n *Node, ctx int32) {
		if n == g.RootT || n == g.RootF {
			return
		}
		id := n.ID
		if eq != nil {
			id = eq.rep[id]
		}
		if visitedUnknown.Has(id) {
			return
		}
		if ctx == ctxUnknown {
			// Widen: unknown subsumes all specific contexts.
			visitedUnknown.Add(id)
		} else {
			row := int(ctxRow[id]) - 1
			if row < 0 {
				row = rows
				rows++
				ctxRow[id] = int32(rows)
				if row%ctxChunkRows == 0 {
					ctxChunks = append(ctxChunks, make([]uint64, ctxChunkRows*wpn))
				}
			}
			chunk := ctxChunks[row/ctxChunkRows]
			w := &chunk[(row%ctxChunkRows)*wpn+int(ctx>>6)]
			mask := uint64(1) << (ctx & 63)
			if *w&mask != 0 {
				return
			}
			*w |= mask
		}
		gm.bottom.Add(id)
		work = append(work, state{int32(id), ctx})
	}
	cutAt := func(slot int32, from, to *Node) bool {
		return (cuts != nil && cuts.slots.Has(int(slot))) || (cut != nil && cut(from, to))
	}

	rootF := g.RootF
	for k, e := range rootF.Users {
		// Flows start where an undefined value is born; the birth context
		// is unknown (it can leave its function through any return).
		if cutAt(g.userOff[rootF.ID]+int32(k), e.To, rootF) {
			continue
		}
		push(e.To, ctxUnknown)
	}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		var users []Edge
		if eq != nil {
			users = eq.classUsers[s.node]
		} else {
			users = g.users[g.userOff[s.node]:g.userOff[s.node+1]]
		}
		base := g.userOff[s.node]
		for k := range users {
			e := &users[k]
			// A user edge from s.node to e.To corresponds to the
			// dependence edge e.To → s.node.
			if (cuts != nil || cut != nil) && cutAt(base+int32(k), e.To, g.Nodes[s.node]) {
				continue
			}
			kind := e.Kind
			if opts.ContextInsensitive {
				kind = EdgeIntra
			}
			switch kind {
			case EdgeIntra:
				push(e.To, s.ctx)
			case EdgeCall:
				// Entering the callee at e.Site: remember it (1 level).
				push(e.To, e.SiteID)
			case EdgeRet:
				// Leaving the callee towards e.Site: allowed if we entered
				// there, or if the entry site is unknown.
				if s.ctx == ctxUnknown || s.ctx == e.SiteID {
					push(e.To, ctxUnknown)
				}
			}
		}
	}
	return gm
}

// CutSet is a set of dependence edges that resolution treats as replaced
// by from → T (Opt II's Algorithm 1 rewiring). It marks the user-edge
// slots of the cut edges, so dense resolution tests one bit per edge,
// and keeps the (from, to) pairs sorted for the predicate form (Has).
// Cutting a pair cuts every parallel dependence edge between the two
// nodes, as a predicate over (from, to) would.
type CutSet struct {
	slots *bitset.Set
	from  *bitset.Set
	pairs []uint64 // to<<32 | from, sorted and unique
}

// NewCutSet builds the cut set of the given (from, to) node-id pairs over
// a finished graph. Duplicate pairs are allowed.
func NewCutSet(g *Graph, pairs [][2]int32) *CutSet {
	cs := &CutSet{slots: bitset.New(len(g.users)), from: bitset.New(len(g.Nodes))}
	cs.pairs = make([]uint64, len(pairs))
	for i, p := range pairs {
		cs.pairs[i] = uint64(uint32(p[1]))<<32 | uint64(uint32(p[0]))
		cs.from.Add(int(p[0]))
	}
	slices.Sort(cs.pairs)
	cs.pairs = slices.Compact(cs.pairs)
	// Mark slots one target at a time: stamp the target's cut sources,
	// then scan its users once.
	stamp := make([]int32, len(g.Nodes))
	for i := 0; i < len(cs.pairs); {
		to := int32(cs.pairs[i] >> 32)
		for ; i < len(cs.pairs) && int32(cs.pairs[i]>>32) == to; i++ {
			stamp[uint32(cs.pairs[i])] = to + 1
		}
		base := g.userOff[to]
		for k, e := range g.Nodes[to].Users {
			if stamp[e.To.ID] == to+1 {
				cs.slots.Add(int(base) + k)
			}
		}
	}
	return cs
}

// Len returns the number of distinct cut (from, to) pairs.
func (cs *CutSet) Len() int { return len(cs.pairs) }

// Has reports whether the dependence edge from → to is cut. It is the
// predicate form of the set, for resolvers that take a Cut function.
func (cs *CutSet) Has(from, to *Node) bool {
	if !cs.from.Has(from.ID) {
		return false
	}
	_, ok := slices.BinarySearch(cs.pairs, uint64(uint32(to.ID))<<32|uint64(uint32(from.ID)))
	return ok
}

// CriticalUses lists the VFG nodes whose values are used at critical
// operations, mapping each node to the set of critical instructions using
// it. Constants at critical operations are always defined and omitted.
func CriticalUses(g *Graph) map[*Node][]ir.Instr {
	uses := make(map[*Node][]ir.Instr)
	for _, fn := range g.Prog.Funcs {
		if !fn.HasBody {
			continue
		}
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				vals, ok := ir.IsCritical(in)
				if !ok {
					continue
				}
				for _, v := range vals {
					if r, isReg := v.(*ir.Register); isReg {
						if n := g.RegNode(r); n != nil {
							uses[n] = append(uses[n], in)
						}
					}
				}
			}
		}
	}
	return uses
}

// ReachesCritical computes, context-insensitively, the set of nodes whose
// values may flow into a node used at a critical operation. Only these
// nodes ever need shadow tracking; the percentage of such nodes is
// Table 1's %B column.
func ReachesCritical(g *Graph) []bool {
	reach := make([]bool, len(g.Nodes))
	var work []*Node
	for n := range CriticalUses(g) {
		if !reach[n.ID] {
			reach[n.ID] = true
			work = append(work, n)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range n.Deps {
			if t := e.To; t.Kind != NodeRootT && t.Kind != NodeRootF && !reach[t.ID] {
				reach[t.ID] = true
				work = append(work, t)
			}
		}
	}
	return reach
}

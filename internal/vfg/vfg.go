// Package vfg builds the paper's value-flow graph (§3.2) and resolves the
// definedness of every value on it (§3.3).
//
// Nodes represent SSA definitions: one per virtual register (top-level
// variable) and one per memory SSA version (address-taken variable), plus
// the two roots T (defined) and F (undefined). A dependence edge v → u
// means v's value flows from u. Interprocedural edges carry their call
// site so that definedness resolution can match calls with returns
// (1-callsite context sensitivity).
//
// Stores support three update flavors:
//
//   - strong: the pointer uniquely targets a concrete location (a global
//     cell or a non-recursive function's stack cell): the old version is
//     killed.
//   - semi-strong: the pointer uniquely targets one abstract object whose
//     allocation result register dominates the store; the value flow is
//     rerouted around the allocation's own (possibly undefined) initial
//     state to the version before the allocation (Figure 6).
//   - weak: everything else; the old version flows into the new one.
//
// Layout: node ids are dense and assigned in creation order, which is
// frozen (snapshot Γ bit vectors index by it). Register nodes are found
// through a [function index][register id] table and memory nodes through
// a [memssa def id] table, both holding node ids, so construction and
// lookups probe no pointer-keyed map. The reverse adjacency lives in one
// flat array, and every edge carries its call site's dense context id.
package vfg

import (
	"fmt"

	"github.com/valueflow/usher/internal/cfg"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/memssa"
	"github.com/valueflow/usher/internal/pointer"
)

// NodeKind classifies VFG nodes.
type NodeKind int

// Node kinds.
const (
	NodeRootT NodeKind = iota
	NodeRootF
	NodeReg
	NodeMem
)

// EdgeKind classifies dependence edges.
type EdgeKind uint8

// Edge kinds. Call and Ret edges carry their call site.
const (
	EdgeIntra EdgeKind = iota
	// EdgeCall links a formal parameter (or callee entry memory version)
	// to the actual at a call site: crossing into the callee.
	EdgeCall
	// EdgeRet links a call result (or post-call memory version) to the
	// callee's returned value (or exit memory version): crossing out.
	EdgeRet
)

// Node is one VFG node.
type Node struct {
	ID   int
	Kind NodeKind
	// Reg is set for NodeReg.
	Reg *ir.Register
	// Mem is set for NodeMem.
	Mem *memssa.Def
	// Fn is the containing function (nil for roots).
	Fn *ir.Function

	// Deps are the nodes this node's value flows from.
	Deps []Edge
	// Users is the reverse adjacency, built by Finish.
	Users []Edge
}

func (n *Node) String() string {
	switch n.Kind {
	case NodeRootT:
		return "T"
	case NodeRootF:
		return "F"
	case NodeReg:
		return fmt.Sprintf("%s:%s", n.Fn.Name, n.Reg)
	default:
		return fmt.Sprintf("%s:%s", n.Fn.Name, n.Mem)
	}
}

// Edge is one dependence edge. Every edge is stored twice (in Deps and
// in Users), so the struct is kept at 24 bytes.
type Edge struct {
	To   *Node
	Site *ir.Call
	// SiteID is Site's context id in the graph's call-site numbering
	// (see Sites), stamped when the reverse adjacency is built; 0 on
	// intraprocedural edges.
	SiteID int32
	Kind   EdgeKind
}

// UpdateKind classifies how a store's chi was handled.
type UpdateKind uint8

// Store update flavors.
const (
	UpdateStrong UpdateKind = iota
	UpdateSemiStrong
	// UpdateWeakSingleton: the pointer targets a single abstract object
	// but neither a strong nor a semi-strong update applies.
	UpdateWeakSingleton
	// UpdateWeakMulti: the pointer may target several objects.
	UpdateWeakMulti
)

func (k UpdateKind) String() string {
	switch k {
	case UpdateStrong:
		return "strong"
	case UpdateSemiStrong:
		return "semi-strong"
	case UpdateWeakSingleton:
		return "weak-singleton"
	default:
		return "weak-multi"
	}
}

// Options configures graph construction.
type Options struct {
	// TopLevelOnly builds the Usher_TL variant: only top-level variables
	// are modelled; every load conservatively depends on F.
	TopLevelOnly bool
	// NoSemiStrong disables semi-strong updates (ablation).
	NoSemiStrong bool
}

// Graph is the whole-program VFG.
type Graph struct {
	Prog    *ir.Program
	Pointer *pointer.Result
	Mem     *memssa.Info
	Opts    Options

	RootT *Node
	RootF *Node
	Nodes []*Node

	// SemiStrongCuts counts applications of the semi-strong rule.
	SemiStrongCuts int

	// fnIdx numbers Prog.Funcs; regNodes[fn index][register id] and
	// memNodes[def id] hold node ids, 0 meaning none (node 0 is the T
	// root, never a register or memory node).
	fnIdx    map[*ir.Function]int32
	regNodes [][]int32
	memNodes []int32
	// storeUpdates[def id] is the UpdateKind+1 chosen for a store chi,
	// 0 for every other def.
	storeUpdates []uint8

	// users is the flat reverse adjacency: Nodes[i].Users is
	// users[userOff[i]:userOff[i+1]], so a user edge has a dense slot.
	users   []Edge
	userOff []int32

	// sealed marks the graph immutable: after Build returns, node lookups
	// never materialize new nodes, so a Graph (and everything hanging off
	// it) can be shared read-only across concurrent consumers.
	sealed bool
	// siteIDs/numSites assign a dense, deterministic id (1..numSites) to
	// every call site appearing on an interprocedural edge; id 0 is the
	// unknown context. Precomputing the table at build time keeps Resolve
	// read-only on the graph.
	siteIDs  map[*ir.Call]int
	numSites int

	// Construction scratch, dropped by seal: the node slab, each
	// function's returned values (computed once, not per call site), and
	// the current function's dominator tree (built on first use).
	slab    []Node
	retVals [][]ir.Value
	dom     *cfg.DomTree
}

// newGraph returns an empty, unsealed graph holding only the two roots.
func newGraph(prog *ir.Program, pa *pointer.Result, mem *memssa.Info, opts Options) *Graph {
	nf := len(prog.Funcs)
	g := &Graph{
		Prog:     prog,
		Pointer:  pa,
		Mem:      mem,
		Opts:     opts,
		fnIdx:    make(map[*ir.Function]int32, nf),
		regNodes: make([][]int32, nf),
	}
	total := 0
	for _, fn := range prog.Funcs {
		total += fn.NumRegs()
	}
	flat := make([]int32, total)
	for i, fn := range prog.Funcs {
		g.fnIdx[fn] = int32(i)
		n := fn.NumRegs()
		g.regNodes[i] = flat[:n:n]
		flat = flat[n:]
	}
	if mem != nil && !opts.TopLevelOnly {
		g.memNodes = make([]int32, mem.NumDefs)
		g.storeUpdates = make([]uint8, mem.NumDefs)
	}
	g.RootT = g.newNode(NodeRootT, nil)
	g.RootF = g.newNode(NodeRootF, nil)
	return g
}

// Build constructs the VFG.
func Build(prog *ir.Program, pa *pointer.Result, mem *memssa.Info, opts Options) *Graph {
	g := newGraph(prog, pa, mem, opts)
	g.retVals = make([][]ir.Value, len(prog.Funcs))
	for i, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if r, ok := in.(*ir.Ret); ok && r.Val != nil {
					g.retVals[i] = append(g.retVals[i], r.Val)
				}
			}
		}
	}
	for i, fn := range prog.Funcs {
		if fn.HasBody {
			g.buildFunc(int32(i), fn)
		}
	}
	g.linkParams()
	g.seal()
	return g
}

// seal completes construction and freezes the graph: every register that
// could ever be queried gets its node now, the reverse adjacency and the
// call-site table are built, and lazy node creation is switched off.
func (g *Graph) seal() {
	// Materialize nodes for every parameter and every defined register,
	// so post-build lookups (CriticalUses, instrumentation, Opt II) never
	// mutate the node table. Operand registers are always defined by some
	// instruction or parameter, so this covers all of them.
	for i, fn := range g.Prog.Funcs {
		if !fn.HasBody {
			continue
		}
		fi := int32(i)
		for _, prm := range fn.Params {
			g.regNode(fi, prm)
		}
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				var dst *ir.Register
				switch in := in.(type) {
				case *ir.Alloc:
					dst = in.Dst
				case *ir.Copy:
					dst = in.Dst
				case *ir.BinOp:
					dst = in.Dst
				case *ir.FieldAddr:
					dst = in.Dst
				case *ir.IndexAddr:
					dst = in.Dst
				case *ir.Phi:
					dst = in.Dst
				case *ir.Load:
					dst = in.Dst
				case *ir.Call:
					dst = in.Dst
				}
				if dst != nil {
					g.regIn(fi, dst)
				}
			}
		}
	}
	g.finish()
	g.sealed = true
	g.slab, g.retVals, g.dom = nil, nil, nil
}

// Sealed reports whether the graph has been made immutable (set by Build
// before returning). The pipeline artifact store refuses to share an
// unsealed graph: lookups on it would materialize nodes and race.
func (g *Graph) Sealed() bool { return g.sealed }

// Sites returns the graph's dense call-site numbering: a map from call
// site to context id (1..numSites; 0 is the unknown context) plus the
// site count. Sealed graphs carry the table precomputed at build time;
// unsealed ones (hand-built in tests) get a fresh assignment in the same
// deterministic dependence-edge order, so resolution — dense or
// summary-based — always agrees on context ids.
func (g *Graph) Sites() (map[*ir.Call]int, int) {
	if g.sealed {
		return g.siteIDs, g.numSites
	}
	return numberSites(g.Nodes)
}

// numberSites assigns call-site ids in dependence-edge order: nodes by
// id, each node's edges in order.
func numberSites(nodes []*Node) (map[*ir.Call]int, int) {
	siteIDs := make(map[*ir.Call]int)
	for _, n := range nodes {
		for _, e := range n.Deps {
			if e.Site != nil {
				if _, ok := siteIDs[e.Site]; !ok {
					siteIDs[e.Site] = len(siteIDs) + 1
				}
			}
		}
	}
	return siteIDs, len(siteIDs)
}

func (g *Graph) newNode(kind NodeKind, fn *ir.Function) *Node {
	if len(g.slab) == cap(g.slab) {
		g.slab = make([]Node, 0, 256)
	}
	g.slab = append(g.slab, Node{ID: len(g.Nodes), Kind: kind, Fn: fn})
	n := &g.slab[len(g.slab)-1]
	g.Nodes = append(g.Nodes, n)
	return n
}

// RegNode returns the node of a register definition. On a sealed graph
// misses return nil instead of materializing a node (callers treat nil
// conservatively), keeping lookups free of side effects so they are safe
// under concurrent sharing.
func (g *Graph) RegNode(r *ir.Register) *Node {
	fi, ok := g.fnIdx[r.Fn]
	if !ok {
		return nil // not a function of the program
	}
	return g.regNode(fi, r)
}

// regIn is RegNode for a register expected in the function with index
// fi (an operand of that function's code): no map probe on the hot path.
func (g *Graph) regIn(fi int32, r *ir.Register) *Node {
	if g.Prog.Funcs[fi] != r.Fn {
		return g.RegNode(r)
	}
	return g.regNode(fi, r)
}

func (g *Graph) regNode(fi int32, r *ir.Register) *Node {
	regs := g.regNodes[fi]
	if r.ID >= len(regs) {
		return nil // created after the graph was built
	}
	if id := regs[r.ID]; id != 0 {
		return g.Nodes[id]
	}
	if g.sealed {
		return nil
	}
	n := g.newNode(NodeReg, r.Fn)
	n.Reg = r
	regs[r.ID] = int32(n.ID)
	return n
}

// MemNode returns the node of a memory SSA definition.
func (g *Graph) MemNode(d *memssa.Def) *Node {
	if g.Opts.TopLevelOnly {
		// Should not be called in TL mode; defensive.
		return g.RootF
	}
	if int(d.ID) >= len(g.memNodes) {
		return nil // not a def of g.Mem
	}
	if id := g.memNodes[d.ID]; id != 0 {
		return g.Nodes[id]
	}
	if g.sealed {
		return nil
	}
	n := g.newNode(NodeMem, d.Fn)
	n.Mem = d
	g.memNodes[d.ID] = int32(n.ID)
	return n
}

// ValueNode returns the node representing an operand's value: T for
// constants, function addresses and global addresses; the register node
// otherwise.
func (g *Graph) ValueNode(v ir.Value) *Node {
	if r, ok := v.(*ir.Register); ok {
		return g.RegNode(r)
	}
	return g.RootT
}

// valueIn is ValueNode for an operand of the function with index fi.
func (g *Graph) valueIn(fi int32, v ir.Value) *Node {
	if r, ok := v.(*ir.Register); ok {
		return g.regIn(fi, r)
	}
	return g.RootT
}

// StoreUpdate returns the update flavor chosen for a store chi; ok is
// false for any other def (and on top-level-only graphs).
func (g *Graph) StoreUpdate(d *memssa.Def) (kind UpdateKind, ok bool) {
	if int(d.ID) < len(g.storeUpdates) {
		if k := g.storeUpdates[d.ID]; k != 0 {
			return UpdateKind(k - 1), true
		}
	}
	return 0, false
}

func (g *Graph) addDep(from, to *Node) { g.addDepE(from, to, EdgeIntra, nil) }

func (g *Graph) addDepE(from, to *Node, kind EdgeKind, site *ir.Call) {
	from.Deps = append(from.Deps, Edge{To: to, Kind: kind, Site: site})
}

// finish numbers the call sites, stamps every edge with its site's id,
// and builds the reverse adjacency in one exactly sized array. It is
// idempotent, so hand-built graphs may call it before seal does.
func (g *Graph) finish() {
	g.siteIDs, g.numSites = numberSites(g.Nodes)
	n := len(g.Nodes)
	off := make([]int32, n+1)
	for _, nd := range g.Nodes {
		for k := range nd.Deps {
			e := &nd.Deps[k]
			if e.Site != nil {
				e.SiteID = int32(g.siteIDs[e.Site])
			}
			off[e.To.ID+1]++
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	users := make([]Edge, off[n])
	next := make([]int32, n)
	copy(next, off[:n])
	for _, nd := range g.Nodes {
		for _, e := range nd.Deps {
			t := e.To.ID
			users[next[t]] = Edge{To: nd, Site: e.Site, SiteID: e.SiteID, Kind: e.Kind}
			next[t]++
		}
	}
	for i, nd := range g.Nodes {
		nd.Users = users[off[i]:off[i+1]:off[i+1]]
	}
	g.users, g.userOff = users, off
}

// ConcreteLocation reports whether a memory variable denotes exactly one
// runtime cell, making strong updates safe: a global cell, or a stack
// cell of a non-recursive function; and never part of a collapsed
// multi-cell object or a dynamically sized allocation. Opt II uses the
// same predicate for the concrete versions in a closure.
func ConcreteLocation(pa *pointer.Result, v memssa.MemVar) bool {
	if v.Obj.Collapsed() && v.Obj.Size > 1 {
		return false
	}
	if v.Obj.Site != nil && v.Obj.Site.DynSize != nil {
		return false
	}
	switch v.Obj.Kind {
	case ir.ObjGlobal:
		return true
	case ir.ObjStack:
		return !pa.Recursive(v.Obj.Fn)
	default:
		return false
	}
}

// domOf returns fn's dominator tree, building it on first use per
// function (only semi-strong updates need it).
func (g *Graph) domOf(fn *ir.Function) *cfg.DomTree {
	if g.dom == nil {
		g.dom = cfg.NewDomTree(fn)
	}
	return g.dom
}

func (g *Graph) buildFunc(fi int32, fn *ir.Function) {
	fm := g.Mem.Funcs[fn]
	g.dom = nil

	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			switch in := in.(type) {
			case *ir.Alloc:
				g.buildAlloc(fi, fm, in)
			case *ir.Copy:
				g.addDep(g.regIn(fi, in.Dst), g.valueIn(fi, in.Src))
			case *ir.BinOp:
				d := g.regIn(fi, in.Dst)
				g.addDep(d, g.valueIn(fi, in.X))
				g.addDep(d, g.valueIn(fi, in.Y))
			case *ir.FieldAddr:
				g.addDep(g.regIn(fi, in.Dst), g.valueIn(fi, in.Base))
			case *ir.IndexAddr:
				d := g.regIn(fi, in.Dst)
				g.addDep(d, g.valueIn(fi, in.Base))
				g.addDep(d, g.valueIn(fi, in.Idx))
			case *ir.Phi:
				d := g.regIn(fi, in.Dst)
				for _, v := range in.Vals {
					g.addDep(d, g.valueIn(fi, v))
				}
			case *ir.Load:
				g.buildLoad(fi, fm, in)
			case *ir.Store:
				g.buildStore(fi, fm, in)
			case *ir.MemSet:
				g.buildMemSet(fi, fm, in)
			case *ir.MemCopy:
				g.buildMemCopy(fm, in)
			case *ir.Call:
				g.buildCall(fi, fm, in)
			}
		}
	}
	if g.Opts.TopLevelOnly || fm == nil {
		return
	}
	// Memory phis, in block-list order so node creation order — and with
	// it the graph's node numbering, which snapshot Γ bit vectors index —
	// is identical on every run.
	for _, b := range fn.Blocks {
		for _, d := range fm.Phis[b.ID] {
			nd := g.MemNode(d)
			for _, arg := range d.PhiArgs {
				g.addDep(nd, g.MemNode(arg))
			}
		}
	}
	// Entry versions of variables that cannot pre-exist are defined.
	for _, d := range fm.AllDefs {
		if d.Kind == memssa.DefEntryUndef {
			g.addDep(g.MemNode(d), g.RootT)
		}
	}
}

func (g *Graph) buildAlloc(fi int32, fm *memssa.FuncInfo, in *ir.Alloc) {
	// The returned pointer is always defined ([⊤-Alloc]).
	g.addDep(g.regIn(fi, in.Dst), g.RootT)
	if g.Opts.TopLevelOnly || fm == nil {
		return
	}
	initRoot := g.RootF
	if in.Obj.ZeroInit {
		initRoot = g.RootT
	}
	for _, chi := range fm.Chis[in.Label()] {
		n := g.MemNode(chi)
		g.addDep(n, initRoot)
		// Older instances of the same abstract object keep their state.
		g.addDep(n, g.MemNode(chi.Prev))
	}
}

func (g *Graph) buildLoad(fi int32, fm *memssa.FuncInfo, in *ir.Load) {
	d := g.regIn(fi, in.Dst)
	if g.Opts.TopLevelOnly || fm == nil {
		// Without address-taken tracking, loaded values are unknown.
		g.addDep(d, g.RootF)
		return
	}
	mus := fm.Mus[in.Label()]
	if len(mus) == 0 {
		// No statically visible target (e.g. empty points-to set): the
		// value cannot be proven defined.
		g.addDep(d, g.RootF)
		return
	}
	for _, mu := range mus {
		g.addDep(d, g.MemNode(mu.Use))
	}
}

func (g *Graph) buildStore(fi int32, fm *memssa.FuncInfo, in *ir.Store) {
	if g.Opts.TopLevelOnly || fm == nil {
		return
	}
	valNode := g.valueIn(fi, in.Val)
	uniq, isUniq := g.Pointer.UniqueTarget(in.Addr)
	for _, chi := range fm.Chis[in.Label()] {
		n := g.MemNode(chi)
		g.addDep(n, valNode)
		kind := UpdateWeakMulti
		if isUniq {
			uvar := memssa.MemVar{Obj: uniq.Obj, Field: g.Pointer.CanonField(uniq.Obj, uniq.Field)}
			switch {
			case uvar == chi.Var && ConcreteLocation(g.Pointer, uvar):
				// Strong update: the old version is killed.
				kind = UpdateStrong
			case uvar == chi.Var && !g.Opts.NoSemiStrong && g.semiStrong(fm, in, chi, n):
				kind = UpdateSemiStrong
			default:
				kind = UpdateWeakSingleton
				g.addDep(n, g.MemNode(chi.Prev))
			}
		} else {
			g.addDep(n, g.MemNode(chi.Prev))
		}
		g.storeUpdates[chi.ID] = uint8(kind) + 1
	}
}

// buildMemSet wires a memset intrinsic's chis: every targeted variable's
// new version flows from the fill value and — because the runtime range
// may not cover the variable — from the incoming version. The always-weak
// treatment keeps the chis sound for any length, including zero.
func (g *Graph) buildMemSet(fi int32, fm *memssa.FuncInfo, in *ir.MemSet) {
	if g.Opts.TopLevelOnly || fm == nil {
		return
	}
	valNode := g.valueIn(fi, in.Val)
	for _, chi := range fm.Chis[in.Label()] {
		n := g.MemNode(chi)
		g.addDep(n, valNode)
		g.addDep(n, g.MemNode(chi.Prev))
	}
}

// buildMemCopy wires a memcpy/memmove intrinsic's chis: every targeted
// variable's new version flows from the source variables' reaching
// versions (the instruction's mus) and from its own incoming version
// (always weak, as for memset). An empty source points-to set means the
// copied values are statically unknown and therefore possibly undefined.
func (g *Graph) buildMemCopy(fm *memssa.FuncInfo, in *ir.MemCopy) {
	if g.Opts.TopLevelOnly || fm == nil {
		return
	}
	mus := fm.Mus[in.Label()]
	for _, chi := range fm.Chis[in.Label()] {
		n := g.MemNode(chi)
		if len(mus) == 0 {
			g.addDep(n, g.RootF)
		}
		for _, mu := range mus {
			g.addDep(n, g.MemNode(mu.Use))
		}
		g.addDep(n, g.MemNode(chi.Prev))
	}
}

// semiStrong attempts the semi-strong update of §3.2: if the allocation
// site of the stored-to object produces a pointer register whose
// definition dominates the store, the store definitely overwrites the
// freshly allocated cell, so the value flow is rerouted to the version
// before the allocation's chi, bypassing the allocation's own undefined
// initial state. Returns true (and adds the rerouted edge) on success.
func (g *Graph) semiStrong(fm *memssa.FuncInfo, st *ir.Store, chi *memssa.Def, n *Node) bool {
	// The rule is only sound when the variable denotes exactly one cell
	// per instance: the store then definitely overwrites the fresh cell.
	// A collapsed multi-cell object (array, dynamic allocation) is a
	// summary of many cells, of which the store writes only one.
	obj := chi.Var.Obj
	if obj.Collapsed() && obj.Size > 1 {
		return false
	}
	site := obj.Site
	if site == nil || site.DynSize != nil {
		return false
	}
	fn := st.Parent().Fn
	if site.Parent() == nil || site.Parent().Fn != fn {
		return false
	}
	if !g.domOf(fn).InstrDominates(site, st) {
		return false
	}
	// Find the version of this variable before the allocation's chi.
	for _, allocChi := range fm.Chis[site.Label()] {
		if allocChi.Var == chi.Var {
			g.addDep(n, g.MemNode(allocChi.Prev))
			g.SemiStrongCuts++
			return true
		}
	}
	return false
}

func (g *Graph) buildCall(fi int32, fm *memssa.FuncInfo, in *ir.Call) {
	switch in.Builtin {
	case ir.BuiltinInput:
		g.addDep(g.regIn(fi, in.Dst), g.RootT)
		return
	case ir.BuiltinPrint, ir.BuiltinFree:
		return
	}
	callees := g.Pointer.Callees(in)
	if len(callees) == 0 || (in.Direct() != nil && !in.Direct().HasBody) {
		// External call: modelled as returning a defined value.
		if in.Dst != nil {
			g.addDep(g.regIn(fi, in.Dst), g.RootT)
		}
		return
	}
	for _, callee := range callees {
		if !callee.HasBody {
			if in.Dst != nil {
				g.addDep(g.regIn(fi, in.Dst), g.RootT)
			}
			continue
		}
		ci, ok := g.fnIdx[callee]
		if !ok {
			continue
		}
		// Formal parameters depend on actuals (call edges).
		for i, prm := range callee.Params {
			if i < len(in.Args) {
				g.addDepE(g.regIn(ci, prm), g.valueIn(fi, in.Args[i]), EdgeCall, in)
			}
		}
		// Return value flows to the call result (ret edges).
		if in.Dst != nil {
			for _, v := range g.retVals[ci] {
				g.addDepE(g.regIn(fi, in.Dst), g.valueIn(ci, v), EdgeRet, in)
			}
		}
		cm := g.Mem.Funcs[callee]
		if g.Opts.TopLevelOnly || fm == nil || cm == nil {
			continue
		}
		// Virtual input parameters: callee entry versions depend on the
		// caller's current versions at the call site. The call's mus and
		// the callee's inputs are both sorted by variable, so one merge
		// walk pairs them.
		mus := fm.Mus[in.Label()]
		k := 0
		for j, v := range cm.InVars {
			for k < len(mus) && mus[k].Var.Less(v) {
				k++
			}
			if k < len(mus) && mus[k].Var == v {
				g.addDepE(g.MemNode(cm.InEntry[j]), g.MemNode(mus[k].Use), EdgeCall, in)
			}
		}
		// Virtual output parameters: the caller's post-call versions
		// depend on the callee's versions at each return, in ascending
		// ret-label order so node creation and edge order (and with them
		// the graph's node numbering) are identical on every run.
		k = 0
		for _, chi := range fm.Chis[in.Label()] {
			n := g.MemNode(chi)
			for k < len(cm.OutVars) && cm.OutVars[k].Less(chi.Var) {
				k++
			}
			if k < len(cm.OutVars) && cm.OutVars[k] == chi.Var {
				for _, rv := range cm.Rets {
					g.addDepE(n, g.MemNode(rv.Out[k]), EdgeRet, in)
				}
			} else {
				// Some other callee modifies this variable; through this
				// callee it is unchanged.
				g.addDep(n, g.MemNode(chi.Prev))
			}
		}
	}
}

// linkParams gives defined roots to the parameters and entry memory
// versions of functions that are never called (program entry points).
func (g *Graph) linkParams() {
	for i, fn := range g.Prog.Funcs {
		if !fn.HasBody {
			continue
		}
		if len(g.Pointer.Callers(fn)) > 0 {
			continue
		}
		for _, prm := range fn.Params {
			g.addDep(g.regIn(int32(i), prm), g.RootT)
		}
		if g.Opts.TopLevelOnly {
			continue
		}
		if fm := g.Mem.Funcs[fn]; fm != nil {
			// At program start, globals are initialized and no heap
			// instances exist.
			for _, d := range fm.InEntry {
				g.addDep(g.MemNode(d), g.RootT)
			}
		}
	}
}

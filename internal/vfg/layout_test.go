package vfg

import (
	"testing"
	"unsafe"

	"github.com/valueflow/usher/internal/ir"
)

// TestEdgeSize guards the edge layout: every edge is stored twice (Deps
// and Users), so a wider Edge costs allocation on every graph.
func TestEdgeSize(t *testing.T) {
	if got := unsafe.Sizeof(Edge{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Edge{}) = %d, want 24", got)
	}
}

// handBuiltGraph builds, without IR behind it, one callee id(x) called
// from two sites: c1 passes an undefined value, c2 a defined one. The
// c2 edges are created first so the call-site numbering (by node id and
// edge order) differs from edge creation order.
func handBuiltGraph() (g *Graph, nodes map[string]*Node) {
	prog := ir.NewProgram()
	callee := &ir.Function{Name: "id", HasBody: true}
	main := &ir.Function{Name: "main", HasBody: true}
	prog.AddFunc(callee)
	prog.AddFunc(main)
	regs := map[string]*ir.Register{
		"b": main.NewReg("b"), "rb": main.NewReg("rb"),
		"x": callee.NewReg("x"),
		"a": main.NewReg("a"), "ra": main.NewReg("ra"),
	}
	g = newGraph(prog, nil, nil, Options{TopLevelOnly: true})
	nodes = make(map[string]*Node)
	for _, name := range []string{"b", "rb", "x", "a", "ra"} {
		nodes[name] = g.RegNode(regs[name])
	}
	c1, c2 := &ir.Call{}, &ir.Call{}
	g.addDep(nodes["b"], g.RootT)
	g.addDepE(nodes["rb"], nodes["x"], EdgeRet, c2)
	g.addDepE(nodes["x"], nodes["b"], EdgeCall, c2)
	g.addDepE(nodes["x"], nodes["a"], EdgeCall, c1)
	g.addDep(nodes["a"], g.RootF)
	g.addDepE(nodes["ra"], nodes["x"], EdgeRet, c1)
	return g, nodes
}

// TestResolveUnsealedMatchesSealed checks that an unsealed, hand-built
// graph resolves with the same call-site contexts as its sealed form:
// the ids stamped on the edges come from the numbering Sites() reports,
// not from sealing. Were every context resolved as 0, the undefined
// value entering id() at c1 would leak out through c2's return.
func TestResolveUnsealedMatchesSealed(t *testing.T) {
	g, nodes := handBuiltGraph()
	g.finish()
	before := Resolve(g)
	sitesBefore, nBefore := g.Sites()
	if len(nodes["rb"].Users) != 0 || len(nodes["x"].Users) != 2 {
		t.Fatalf("finish built %d users of rb, %d of x; want 0 and 2",
			len(nodes["rb"].Users), len(nodes["x"].Users))
	}
	for _, n := range g.Nodes {
		for _, e := range n.Deps {
			if e.Site != nil && int(e.SiteID) != sitesBefore[e.Site] {
				t.Errorf("%v -> %v: stamped site id %d, Sites() says %d",
					n, e.To, e.SiteID, sitesBefore[e.Site])
			}
		}
	}

	g.seal()
	after := Resolve(g)
	sitesAfter, nAfter := g.Sites()
	if nBefore != 2 || nAfter != nBefore {
		t.Fatalf("site count %d before sealing, %d after; want 2", nBefore, nAfter)
	}
	for site, id := range sitesBefore {
		if sitesAfter[site] != id {
			t.Errorf("site id %d before sealing, %d after", id, sitesAfter[site])
		}
	}
	for _, n := range g.Nodes {
		if before.Of(n) != after.Of(n) {
			t.Errorf("%v: %v unsealed, %v sealed", n, before.Of(n), after.Of(n))
		}
	}
	want := map[string]State{"a": Bottom, "x": Bottom, "ra": Bottom, "b": Top, "rb": Top}
	for name, st := range want {
		if got := after.Of(nodes[name]); got != st {
			t.Errorf("%s = %v, want %v", name, got, st)
		}
	}
}

package vfg_test

import (
	"testing"

	"github.com/valueflow/usher/internal/compile"
	"github.com/valueflow/usher/internal/memssa"
	"github.com/valueflow/usher/internal/pointer"
	"github.com/valueflow/usher/internal/randprog"
	"github.com/valueflow/usher/internal/vfg"
	"github.com/valueflow/usher/internal/vfgsum"
	"github.com/valueflow/usher/internal/workload"
)

// randomCut returns a deterministic pseudo-random edge predicate: the
// salt picks a different ~1/k slice of the edge space per iteration, so
// the property sweep covers cuts of seed edges (from RootF), intra
// edges, and interprocedural edges alike.
func randomCut(salt, k int) func(from, to *vfg.Node) bool {
	return func(from, to *vfg.Node) bool {
		return (from.ID*2654435761+to.ID*40503+salt)%k == 0
	}
}

// checkCutEquivalence pins three facts about one (graph, cut) pair:
//
//  1. ResolveCut is exactly ResolveWith with the same Cut option (the
//     convenience wrapper adds nothing);
//  2. the Opt IV summary-based vfgsum.ResolveCut produces the identical
//     Γ (cuts force a cut-aware condensation — a cached cut-free
//     summary cannot serve them — and that rebuild must not change the
//     result);
//  3. cutting edges is monotone: an edge cut only removes ⊥ flows, so
//     the cut ⊥ set is a subset of the uncut one.
func checkCutEquivalence(t *testing.T, tag string, g *vfg.Graph, cut func(from, to *vfg.Node) bool) {
	t.Helper()
	uncut := vfg.Resolve(g)
	viaCut := vfg.ResolveCut(g, cut)
	viaWith := vfg.ResolveWith(g, vfg.ResolveOptions{Cut: cut})
	viaSum := vfgsum.ResolveCut(g, cut)
	for _, n := range g.Nodes {
		if viaCut.Of(n) != viaWith.Of(n) {
			t.Fatalf("%s: node %v: ResolveCut %v, ResolveWith{Cut} %v",
				tag, n, viaCut.Of(n), viaWith.Of(n))
		}
		if viaCut.Of(n) != viaSum.Of(n) {
			t.Fatalf("%s: node %v: dense cut %v, summary cut %v",
				tag, n, viaCut.Of(n), viaSum.Of(n))
		}
		if viaCut.Of(n) == vfg.Bottom && uncut.Of(n) == vfg.Top {
			t.Fatalf("%s: node %v: ⊥ under the cut but ⊤ without it (cut added a flow)",
				tag, n)
		}
	}
}

// TestResolveCutEquivalenceWorkloads sweeps pseudo-random cut
// predicates over workload graphs.
func TestResolveCutEquivalenceWorkloads(t *testing.T) {
	for _, name := range []string{"gzip", "equake", "ammp"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		g := buildGraph(t, workload.Generate(p))
		for salt := 0; salt < 4; salt++ {
			for _, k := range []int{2, 5, 13} {
				checkCutEquivalence(t, name, g, randomCut(salt, k))
			}
		}
		// Degenerate cuts: nothing cut (must equal the plain resolution)
		// and everything cut (⊥ must be empty — even seed edges are cut).
		none := vfg.ResolveCut(g, func(from, to *vfg.Node) bool { return false })
		plain := vfg.Resolve(g)
		for _, n := range g.Nodes {
			if none.Of(n) != plain.Of(n) {
				t.Fatalf("%s: node %v: empty cut diverges from plain resolution", name, n)
			}
		}
		all := vfg.ResolveCut(g, func(from, to *vfg.Node) bool { return true })
		if all.BottomCount() != 0 {
			t.Errorf("%s: cutting every edge left %d ⊥ nodes", name, all.BottomCount())
		}
	}
}

// TestResolveCutEquivalenceRandom extends the sweep to the fuzzer
// corpus.
func TestResolveCutEquivalenceRandom(t *testing.T) {
	seeds := int64(60)
	if testing.Short() {
		seeds = 15
	}
	for seed := int64(0); seed < seeds; seed++ {
		src := randprog.Generate(seed, randprog.DefaultOptions)
		irp := compile.MustSource("rand.c", src)
		pa := pointer.Analyze(irp)
		mem := memssa.Build(irp, pa)
		g := vfg.Build(irp, pa, mem, vfg.Options{})
		for _, k := range []int{2, 7} {
			checkCutEquivalence(t, src, g, randomCut(int(seed), k))
		}
	}
}

// TestCutSetForms checks that a CutSet resolves identically in its two
// forms: as bits over user-edge slots (dense resolution) and as the Has
// predicate (the form the summary resolver takes), and that both equal
// a plain predicate over the same pairs. The pairs include duplicates;
// cutting a pair cuts every parallel edge between its nodes.
func TestCutSetForms(t *testing.T) {
	for _, name := range []string{"gzip", "ammp"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		g := buildGraph(t, workload.Generate(p))
		for _, k := range []int{2, 5, 11} {
			var pairs [][2]int32
			want := make(map[[2]int]bool)
			for _, n := range g.Nodes {
				for i, e := range n.Deps {
					if (n.ID+i)%k == 0 {
						pairs = append(pairs, [2]int32{int32(n.ID), int32(e.To.ID)}, [2]int32{int32(n.ID), int32(e.To.ID)})
						want[[2]int{n.ID, e.To.ID}] = true
					}
				}
			}
			cs := vfg.NewCutSet(g, pairs)
			if cs.Len() != len(want) {
				t.Fatalf("%s k=%d: %d distinct pairs, want %d", name, k, cs.Len(), len(want))
			}
			bySlots := vfg.ResolveWith(g, vfg.ResolveOptions{Cuts: cs})
			byHas := vfg.ResolveCut(g, cs.Has)
			byPred := vfg.ResolveCut(g, func(from, to *vfg.Node) bool { return want[[2]int{from.ID, to.ID}] })
			bySum := vfgsum.ResolveCut(g, cs.Has)
			for _, n := range g.Nodes {
				s := bySlots.Of(n)
				if byHas.Of(n) != s || byPred.Of(n) != s || bySum.Of(n) != s {
					t.Fatalf("%s k=%d: node %v: slots %v, Has %v, predicate %v, summary %v",
						name, k, n, s, byHas.Of(n), byPred.Of(n), bySum.Of(n))
				}
			}
		}
	}
}

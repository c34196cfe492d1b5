// Package cfg provides control-flow-graph analyses over IR functions:
// reverse postorder, dominator trees (Cooper–Harvey–Kennedy), dominance
// frontiers and natural-loop detection. These underpin SSA construction
// (package ssa), memory SSA (package memssa) and the dominance conditions
// of the paper's semi-strong updates and Opt II.
package cfg

import "github.com/valueflow/usher/internal/ir"

// DomTree is the dominator tree of a function. Its per-block tables are
// slices indexed by Block.ID; blocks[id] guards them against blocks of
// other functions.
type DomTree struct {
	fn *ir.Function
	// rpo[i] is the i-th block in reverse postorder; rpoNum is its index.
	rpo    []*ir.Block
	blocks []*ir.Block
	rpoNum []int32
	idom   []*ir.Block
	// children of each block in the dominator tree.
	kids [][]*ir.Block
	// dfs pre/post numbering of the dominator tree for O(1) dominance
	// queries; 0 marks blocks outside the tree (unreachable).
	pre, post []int32
}

// NewDomTree computes the dominator tree of fn using the iterative
// algorithm of Cooper, Harvey and Kennedy. Unreachable blocks are ignored.
func NewDomTree(fn *ir.Function) *DomTree {
	d := &DomTree{fn: fn}
	entry := fn.Entry()
	if entry == nil {
		return d
	}
	d.rpo = ReversePostorder(fn)
	n := 0
	for _, bs := range [][]*ir.Block{fn.Blocks, d.rpo} {
		for _, b := range bs {
			if b.ID >= n {
				n = b.ID + 1
			}
		}
	}
	d.blocks = make([]*ir.Block, n)
	d.rpoNum = make([]int32, n)
	d.idom = make([]*ir.Block, n)
	d.kids = make([][]*ir.Block, n)
	d.pre = make([]int32, n)
	d.post = make([]int32, n)
	for i, b := range d.rpo {
		d.blocks[b.ID] = b
		d.rpoNum[b.ID] = int32(i)
	}

	d.idom[entry.ID] = entry
	changed := true
	for changed {
		changed = false
		for _, b := range d.rpo[1:] {
			var newIdom *ir.Block
			for _, p := range b.Preds {
				if d.index(p) < 0 || d.idom[p.ID] == nil {
					continue // unreachable or not yet processed
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = d.intersect(p, newIdom)
				}
			}
			if newIdom != nil && d.idom[b.ID] != newIdom {
				d.idom[b.ID] = newIdom
				changed = true
			}
		}
	}
	for _, b := range d.rpo {
		if b != entry {
			p := d.idom[b.ID].ID
			d.kids[p] = append(d.kids[p], b)
		}
	}
	// DFS numbering for dominance queries.
	clock := int32(0)
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		clock++
		d.pre[b.ID] = clock
		for _, k := range d.kids[b.ID] {
			dfs(k)
		}
		clock++
		d.post[b.ID] = clock
	}
	dfs(entry)
	return d
}

// index returns b's table index, or -1 if b is not a block of the tree.
func (d *DomTree) index(b *ir.Block) int {
	if b == nil || b.ID < 0 || b.ID >= len(d.blocks) || d.blocks[b.ID] != b {
		return -1
	}
	return b.ID
}

func (d *DomTree) intersect(b1, b2 *ir.Block) *ir.Block {
	f1, f2 := b1, b2
	for f1 != f2 {
		for d.rpoNum[f1.ID] > d.rpoNum[f2.ID] {
			f1 = d.idom[f1.ID]
		}
		for d.rpoNum[f2.ID] > d.rpoNum[f1.ID] {
			f2 = d.idom[f2.ID]
		}
	}
	return f1
}

// Idom returns the immediate dominator of b (the entry's idom is itself).
func (d *DomTree) Idom(b *ir.Block) *ir.Block {
	if i := d.index(b); i >= 0 {
		return d.idom[i]
	}
	return nil
}

// Children returns b's children in the dominator tree.
func (d *DomTree) Children(b *ir.Block) []*ir.Block {
	if i := d.index(b); i >= 0 {
		return d.kids[i]
	}
	return nil
}

// RPO returns the blocks in reverse postorder.
func (d *DomTree) RPO() []*ir.Block { return d.rpo }

// Dominates reports whether a dominates b (reflexively).
func (d *DomTree) Dominates(a, b *ir.Block) bool {
	ia, ib := d.index(a), d.index(b)
	if ia < 0 || ib < 0 {
		return false
	}
	return d.pre[ia] <= d.pre[ib] && d.post[ib] <= d.post[ia]
}

// InstrDominates reports whether instruction a dominates instruction b:
// strictly earlier in the same block, or in a strictly dominating block.
// An instruction does not dominate itself.
func (d *DomTree) InstrDominates(a, b ir.Instr) bool {
	ba, bb := a.Parent(), b.Parent()
	if ba == bb {
		for _, in := range ba.Instrs {
			if in == a {
				return a != b
			}
			if in == b {
				return false
			}
		}
		return false
	}
	return ba != bb && d.Dominates(ba, bb)
}

// ReversePostorder returns fn's reachable blocks in reverse postorder.
func ReversePostorder(fn *ir.Function) []*ir.Block {
	entry := fn.Entry()
	if entry == nil {
		return nil
	}
	seen := make(map[*ir.Block]bool)
	var post []*ir.Block
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		seen[b] = true
		for _, s := range b.Succs {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// DominanceFrontiers computes the dominance frontier of every block using
// the standard algorithm over the dominator tree.
func DominanceFrontiers(d *DomTree) map[*ir.Block][]*ir.Block {
	df := make(map[*ir.Block][]*ir.Block)
	for _, b := range d.rpo {
		if len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			runner := p
			for runner != nil && runner != d.Idom(b) {
				if !containsBlock(df[runner], b) {
					df[runner] = append(df[runner], b)
				}
				next := d.Idom(runner)
				if next == runner { // entry
					break
				}
				runner = next
			}
		}
	}
	return df
}

func containsBlock(s []*ir.Block, b *ir.Block) bool {
	for _, x := range s {
		if x == b {
			return true
		}
	}
	return false
}

// LoopInfo records, per block, whether it is inside any natural loop.
type LoopInfo struct {
	inLoop map[*ir.Block]bool
}

// FindLoops detects natural loops (back edges a->b where b dominates a)
// and marks all blocks in their bodies.
func FindLoops(fn *ir.Function, d *DomTree) *LoopInfo {
	li := &LoopInfo{inLoop: make(map[*ir.Block]bool)}
	for _, b := range d.rpo {
		for _, s := range b.Succs {
			if d.Dominates(s, b) {
				// back edge b -> s; collect the loop body by walking
				// predecessors from b until s.
				li.inLoop[s] = true
				stack := []*ir.Block{b}
				for len(stack) > 0 {
					n := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					if li.inLoop[n] {
						continue
					}
					li.inLoop[n] = true
					for _, p := range n.Preds {
						stack = append(stack, p)
					}
				}
			}
		}
	}
	return li
}

// InLoop reports whether b lies inside any natural loop.
func (li *LoopInfo) InLoop(b *ir.Block) bool { return li.inLoop[b] }

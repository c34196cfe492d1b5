package memssa

import (
	"slices"

	"github.com/valueflow/usher/internal/bitset"
	"github.com/valueflow/usher/internal/cfg"
	"github.com/valueflow/usher/internal/ir"
)

// buildFunc versions every tracked variable of the function with index
// fi: its virtual parameters plus its own accessed stack objects.
func (b *builder) buildFunc(fi int) {
	fn := b.fns[fi]
	acc := b.acc[fi]
	in, out := b.in[fi], b.out[fi]
	nb := 0
	for _, blk := range fn.Blocks {
		if blk.ID >= nb {
			nb = blk.ID + 1
		}
	}
	info := &FuncInfo{
		Fn:      fn,
		InVars:  b.memVars(in),
		OutVars: b.memVars(out),
		Mus:     make([][]Mu, len(acc)),
		Chis:    make([][]*Def, len(acc)),
		Phis:    make([][]*Def, nb),
	}
	b.info.Funcs[fn] = info

	tracked := bitset.New(len(b.vars))
	tracked.UnionWith(b.ref[fi])
	tracked.UnionWith(b.mod[fi])
	var vars []int32
	tracked.ForEach(func(v int) {
		b.local[v] = int32(len(vars))
		vars = append(vars, int32(v))
	})
	if len(vars) == 0 {
		return
	}
	defer func() {
		for _, v := range vars {
			b.local[v] = -1
		}
	}()

	versions := make([]int32, len(vars))
	newDef := func(i int32, kind DefKind) *Def {
		d := b.newDef()
		d.Var = b.vars[vars[i]]
		d.Version = versions[i]
		d.Kind = kind
		d.Fn = fn
		versions[i]++
		info.AllDefs = append(info.AllDefs, d)
		return d
	}

	// Complete the footprints: a call's mus/chis are its callees'
	// virtual inputs/outputs.
	nMu, nChi := 0, 0
	for _, blk := range fn.Blocks {
		for _, instr := range blk.Instrs {
			a := &acc[instr.Label()]
			if c, ok := instr.(*ir.Call); ok {
				callees := b.pa.Callees(c)
				a.mu = b.callFootprint(callees, b.in)
				a.chi = b.callFootprint(callees, b.out)
			}
			nMu += len(a.mu)
			nChi += len(a.chi)
		}
	}

	ir.ComputeCFG(fn)
	dom := cfg.NewDomTree(fn)
	dfMap := cfg.DominanceFrontiers(dom)
	df := make([][]*ir.Block, nb)
	blockOf := make([]*ir.Block, nb)
	for _, blk := range fn.Blocks {
		df[blk.ID] = dfMap[blk]
		blockOf[blk.ID] = blk
	}
	entry := fn.Entry()

	// Entry definitions.
	info.AllDefs = make([]*Def, 0, len(vars)+nChi)
	cur := make([]*Def, len(vars))
	for i, v := range vars {
		kind := DefEntryUndef
		if _, isIn := slices.BinarySearch(in, v); isIn {
			kind = DefEntry
		}
		d := newDef(int32(i), kind)
		cur[i] = d
		if kind == DefEntry {
			info.InEntry = append(info.InEntry, d)
		}
	}

	// Phi placement: iterated dominance frontier of each variable's
	// chi-def blocks plus the entry, which defines everything. The
	// (variable, block) pairs are sorted so every variable's worklist
	// starts in ascending block-id order: phi creation order — and with
	// it version numbering and every downstream artifact keyed by def
	// order (VFG node ids, snapshot Γ bit vectors) — is identical on
	// every run.
	defPairs := make([]uint64, 0, len(vars)+nChi)
	for i := range vars {
		defPairs = append(defPairs, uint64(i)<<32|uint64(entry.ID))
	}
	for _, blk := range fn.Blocks {
		for _, instr := range blk.Instrs {
			for _, v := range acc[instr.Label()].chi {
				defPairs = append(defPairs, uint64(b.local[v])<<32|uint64(blk.ID))
			}
		}
	}
	slices.Sort(defPairs)
	defPairs = slices.Compact(defPairs)
	// phiVar[b.ID][k] is the variable slot of Phis[b.ID][k]. inDef and
	// placed hold slot+1 stamps, so they need no clearing per variable.
	phiVar := make([][]int32, nb)
	inDef := make([]int32, nb)
	placed := make([]int32, nb)
	var work []*ir.Block
	for p := 0; p < len(defPairs); {
		i := int32(defPairs[p] >> 32)
		stamp := i + 1
		work = work[:0]
		for ; p < len(defPairs) && int32(defPairs[p]>>32) == i; p++ {
			id := uint32(defPairs[p])
			inDef[id] = stamp
			work = append(work, blockOf[id])
		}
		for len(work) > 0 {
			blk := work[len(work)-1]
			work = work[:len(work)-1]
			for _, fb := range df[blk.ID] {
				if placed[fb.ID] == stamp {
					continue
				}
				placed[fb.ID] = stamp
				d := newDef(i, DefPhi)
				d.Block = fb
				d.PhiArgs = make([]*Def, len(fb.Preds))
				info.Phis[fb.ID] = append(info.Phis[fb.ID], d)
				phiVar[fb.ID] = append(phiVar[fb.ID], i)
				if inDef[fb.ID] != stamp {
					inDef[fb.ID] = stamp
					work = append(work, fb)
				}
			}
		}
	}

	// Renaming walk over the dominator tree. cur holds the reaching
	// version of every slot; each block logs the slots it overwrites and
	// restores them on exit instead of copying cur.
	muArena := make([]Mu, nMu)
	chiArena := make([]*Def, nChi)
	type undo struct {
		slot int32
		old  *Def
	}
	var log []undo
	set := func(i int32, d *Def) {
		log = append(log, undo{i, cur[i]})
		cur[i] = d
	}
	var rename func(blk *ir.Block)
	rename = func(blk *ir.Block) {
		mark := len(log)
		for k, d := range info.Phis[blk.ID] {
			set(phiVar[blk.ID][k], d)
		}
		for _, instr := range blk.Instrs {
			l := instr.Label()
			if mus := acc[l].mu; len(mus) > 0 {
				ms := muArena[:len(mus):len(mus)]
				muArena = muArena[len(mus):]
				for k, v := range mus {
					ms[k] = Mu{Var: b.vars[v], Use: cur[b.local[v]]}
				}
				info.Mus[l] = ms
			}
			if chis := acc[l].chi; len(chis) > 0 {
				cs := chiArena[:len(chis):len(chis)]
				chiArena = chiArena[len(chis):]
				for k, v := range chis {
					i := b.local[v]
					d := newDef(i, DefChi)
					d.Instr = instr
					d.Prev = cur[i]
					cs[k] = d
					set(i, d)
				}
				info.Chis[l] = cs
			}
			if _, ok := instr.(*ir.Ret); ok {
				rv := RetVersions{Label: l, Out: make([]*Def, len(out))}
				for k, v := range out {
					rv.Out[k] = cur[b.local[v]]
				}
				info.Rets = append(info.Rets, rv)
			}
		}
		for _, s := range blk.Succs {
			predIdx := -1
			for i, p := range s.Preds {
				if p == blk {
					predIdx = i
					break
				}
			}
			for k, d := range info.Phis[s.ID] {
				d.PhiArgs[predIdx] = cur[phiVar[s.ID][k]]
			}
		}
		for _, kid := range dom.Children(blk) {
			rename(kid)
		}
		for len(log) > mark {
			u := log[len(log)-1]
			log = log[:len(log)-1]
			cur[u.slot] = u.old
		}
	}
	rename(entry)
	slices.SortFunc(info.Rets, func(x, y RetVersions) int { return x.Label - y.Label })
}

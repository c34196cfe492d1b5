// Package memssa constructs memory SSA for address-taken variables,
// following §3.1 of the paper (the mu/chi form of Chow et al.).
//
// The unit of versioning is the field variable (object, field): the
// paper's address-taken variable ρ. Each load is annotated with mu(ρ)
// uses, each store and allocation site with ρ := χ(ρ) defs, and each call
// with mus/chis for the callee's virtual input and output parameters.
// Per-function SSA renaming then versions every field variable, with phi
// defs at control-flow joins.
//
// Virtual parameters: a function's input variables are everything it may
// reference or modify transitively, excluding its own stack objects when
// it is not recursive; its output variables are everything it may modify
// (allocation counts as modification). Globals flow across function
// boundaries this way, exactly as the paper handles LLVM globals.
//
// Layout: every field variable accessed anywhere in the program gets a
// dense index, assigned in (object id, field) order so that ascending
// indices are the deterministic variable order. Ref/Mod sets are bit sets
// over those indices, per-instruction annotations are slices indexed by
// instruction label, and every Def carries a program-wide dense ID
// (0..NumDefs-1 in creation order) that downstream passes index by.
package memssa

import (
	"fmt"
	"slices"

	"github.com/valueflow/usher/internal/bitset"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/pointer"
)

// MemVar is an address-taken variable: one field of an abstract object
// (field 0 for collapsed objects).
type MemVar struct {
	Obj   *ir.Object
	Field int
}

func (v MemVar) String() string {
	if v.Field == 0 {
		return v.Obj.String()
	}
	return fmt.Sprintf("%s.f%d", v.Obj, v.Field)
}

// Less orders MemVars deterministically: by object id, then field.
func (v MemVar) Less(w MemVar) bool {
	if v.Obj.ID != w.Obj.ID {
		return v.Obj.ID < w.Obj.ID
	}
	return v.Field < w.Field
}

// DefKind classifies a memory SSA definition.
type DefKind uint8

// Definition kinds.
const (
	// DefEntry is the version live at function entry: the virtual input
	// parameter for input variables.
	DefEntry DefKind = iota
	// DefEntryUndef is the entry version of a variable that cannot exist
	// before the function runs (its own stack objects); it is never
	// observable at a use in well-formed code because stack allocas sit in
	// the entry block.
	DefEntryUndef
	// DefChi is a (potential) definition at a store, allocation or call.
	DefChi
	// DefPhi merges versions at a join.
	DefPhi
)

func (k DefKind) String() string {
	switch k {
	case DefEntry:
		return "entry"
	case DefEntryUndef:
		return "entry-undef"
	case DefChi:
		return "chi"
	default:
		return "phi"
	}
}

// Def is one SSA version of a MemVar within a function.
type Def struct {
	Var MemVar
	Fn  *ir.Function
	// Instr is the annotated instruction for chi defs.
	Instr ir.Instr
	// Block is the join block for phi defs.
	Block *ir.Block
	// Prev is the incoming version a chi may merge with (the χ's use).
	Prev *Def
	// PhiArgs are a phi's incoming versions, aligned with Block.Preds.
	PhiArgs []*Def
	// ID is the def's program-wide dense id: defs are numbered
	// 0..Info.NumDefs-1 in creation order.
	ID      int32
	Version int32
	Kind    DefKind
}

func (d *Def) String() string {
	return fmt.Sprintf("%s_%d(%s)", d.Var, d.Version, d.Kind)
}

// Mu is a use of a version at a load or call.
type Mu struct {
	Var MemVar
	Use *Def
}

// RetVersions records the out-flowing memory state at one Ret.
type RetVersions struct {
	// Label is the Ret instruction's label.
	Label int
	// Out[i] is the version of the function's OutVars[i] at the return.
	Out []*Def
}

// FuncInfo is the memory SSA of one function.
type FuncInfo struct {
	Fn *ir.Function
	// InVars/OutVars are the virtual input and output parameters, sorted.
	InVars  []MemVar
	OutVars []MemVar
	// InEntry[i] is the entry version of InVars[i].
	InEntry []*Def
	// Mus[l] are the mu uses at the instruction labelled l (loads,
	// memory copies and calls), sorted by variable.
	Mus [][]Mu
	// Chis[l] are the chi defs at the instruction labelled l (stores,
	// allocations, memory intrinsics and calls), sorted by variable.
	Chis [][]*Def
	// Phis[b.ID] are the memory phis of block b.
	Phis [][]*Def
	// Rets lists the out-flowing versions at every Ret, in ascending
	// label order.
	Rets []RetVersions
	// AllDefs lists every Def created for the function.
	AllDefs []*Def
}

// Info is the whole-program memory SSA.
type Info struct {
	Prog    *ir.Program
	Pointer *pointer.Result
	Funcs   map[*ir.Function]*FuncInfo
	// NumDefs is the number of defs created; Def.ID ranges over
	// 0..NumDefs-1.
	NumDefs int
}

// Build constructs memory SSA for the whole program.
func Build(prog *ir.Program, pa *pointer.Result) *Info {
	b := newBuilder(prog, pa)
	b.collect()
	b.modRef()
	b.virtualParams()
	for i, fn := range b.fns {
		if fn.HasBody {
			b.buildFunc(i)
		}
	}
	return b.info
}

// access is an instruction's direct memory footprint as sorted variable
// indices: mu lists the variables it reads, chi those it (may) write.
type access struct {
	mu, chi []int32
}

// builder holds the dense tables of one Build.
type builder struct {
	info  *Info
	pa    *pointer.Result
	fns   []*ir.Function
	fnIdx map[*ir.Function]int

	// objBase[obj.ID] is the index of the object's field 0, or -1 for
	// objects no instruction accesses; vars[i] is variable i.
	objBase []int32
	vars    []MemVar

	// acc[fn][label] is the footprint of every instruction; calls are
	// filled in with their callees' virtual parameters before renaming.
	acc [][]access
	// callees[fn] are the (deduplicated) function indices fn may call.
	callees [][]int32
	// ref/mod are the transitive reference/modification sets.
	ref, mod []*bitset.Set
	// in/out are the virtual parameters as sorted variable indices.
	in, out [][]int32

	// local maps a variable index to its slot in the function being
	// renamed (-1 outside it).
	local []int32
	// defSlab backs Def allocation.
	defSlab []Def
	// buf is scratch for call footprint unions.
	buf []int32
}

func newBuilder(prog *ir.Program, pa *pointer.Result) *builder {
	nf := len(prog.Funcs)
	b := &builder{
		info: &Info{
			Prog:    prog,
			Pointer: pa,
			Funcs:   make(map[*ir.Function]*FuncInfo, nf),
		},
		pa:      pa,
		fns:     prog.Funcs,
		fnIdx:   make(map[*ir.Function]int, nf),
		acc:     make([][]access, nf),
		callees: make([][]int32, nf),
		ref:     make([]*bitset.Set, nf),
		mod:     make([]*bitset.Set, nf),
		in:      make([][]int32, nf),
		out:     make([][]int32, nf),
	}
	for i, fn := range prog.Funcs {
		b.fnIdx[fn] = i
	}
	return b
}

// numLabels returns one past the largest instruction label of fn.
func numLabels(fn *ir.Function) int {
	n := 0
	for _, blk := range fn.Blocks {
		for _, in := range blk.Instrs {
			if l := in.Label(); l >= n {
				n = l + 1
			}
		}
	}
	return n
}

// collect computes every instruction's direct footprint and the dense
// variable numbering. Points-to sets are queried once per operand.
func (b *builder) collect() {
	type pending struct {
		fn, label int
		locs      []pointer.Loc
		chi       bool // else mu
		ranged    bool // memory intrinsic: the whole object
	}
	var pend []pending
	var objs []*ir.Object
	seeObj := func(o *ir.Object) {
		for len(b.objBase) <= o.ID {
			b.objBase = append(b.objBase, -1)
			objs = append(objs, nil)
		}
		objs[o.ID] = o
	}
	for fi, fn := range b.fns {
		if !fn.HasBody {
			continue
		}
		b.acc[fi] = make([]access, numLabels(fn))
		seenCallee := make(map[int]bool)
		for _, blk := range fn.Blocks {
			for _, in := range blk.Instrs {
				var addr ir.Value
				chi, ranged := false, false
				switch in := in.(type) {
				case *ir.Load:
					addr = in.Addr
				case *ir.Store:
					addr, chi = in.Addr, true
				case *ir.MemSet:
					addr, chi, ranged = in.To, true, true
				case *ir.MemCopy:
					addr, chi, ranged = in.To, true, true
					locs := b.pa.PointsTo(in.From)
					pend = append(pend, pending{fi, in.Label(), locs, false, true})
				case *ir.Alloc:
					seeObj(in.Obj)
				case *ir.Call:
					for _, callee := range b.pa.Callees(in) {
						if ci, ok := b.fnIdx[callee]; ok && !seenCallee[ci] {
							seenCallee[ci] = true
							b.callees[fi] = append(b.callees[fi], int32(ci))
						}
					}
				}
				if addr == nil {
					continue
				}
				locs := b.pa.PointsTo(addr)
				pend = append(pend, pending{fi, in.Label(), locs, chi, ranged})
			}
		}
	}
	for _, p := range pend {
		for _, l := range p.locs {
			if l.Fn == nil {
				seeObj(l.Obj)
			}
		}
	}
	// Number variables in object-id order: ascending variable indices are
	// then the deterministic (object id, field) order.
	for id, o := range objs {
		if o == nil {
			continue
		}
		b.objBase[id] = int32(len(b.vars))
		for f := 0; f < o.NumFields(); f++ {
			b.vars = append(b.vars, MemVar{Obj: o, Field: f})
		}
	}
	nv := len(b.vars)
	b.local = make([]int32, nv)
	for i := range b.local {
		b.local[i] = -1
	}

	for fi, fn := range b.fns {
		b.ref[fi] = bitset.New(nv)
		b.mod[fi] = bitset.New(nv)
		if !fn.HasBody {
			continue
		}
		for _, blk := range fn.Blocks {
			for _, in := range blk.Instrs {
				if a, ok := in.(*ir.Alloc); ok {
					base := b.objBase[a.Obj.ID]
					n := a.Obj.NumFields()
					vs := make([]int32, n)
					for f := range vs {
						vs[f] = base + int32(f)
					}
					b.acc[fi][a.Label()].chi = vs
					b.addAll(b.mod[fi], vs)
				}
			}
		}
	}
	for _, p := range pend {
		vs := b.locVars(p.locs, p.ranged)
		a := &b.acc[p.fn][p.label]
		if p.chi {
			a.chi = vs
			b.addAll(b.mod[p.fn], vs)
		} else {
			a.mu = vs
			b.addAll(b.ref[p.fn], vs)
		}
	}
}

func (b *builder) addAll(s *bitset.Set, vs []int32) {
	for _, v := range vs {
		s.Add(int(v))
	}
}

// locVars converts points-to locations into sorted, deduplicated
// variable indices (skipping functions). A ranged access (MemSet/MemCopy)
// widens each location to every field variable of its object: memory
// intrinsics access a runtime-sized range, so any field reachable from
// the base pointer's object may be touched regardless of the pointed-at
// offset; versioning the whole object keeps their chis/mus sound for
// every length.
func (b *builder) locVars(locs []pointer.Loc, ranged bool) []int32 {
	var vs []int32
	for _, l := range locs {
		if l.Fn != nil {
			continue
		}
		base := b.objBase[l.Obj.ID]
		if ranged {
			for f := 0; f < l.Obj.NumFields(); f++ {
				vs = append(vs, base+int32(b.pa.CanonField(l.Obj, f)))
			}
		} else {
			vs = append(vs, base+int32(b.pa.CanonField(l.Obj, l.Field)))
		}
	}
	slices.Sort(vs)
	return slices.Compact(vs)
}

// modRef closes the Ref/Mod sets over the call graph.
func (b *builder) modRef() {
	for changed := true; changed; {
		changed = false
		for fi, fn := range b.fns {
			if !fn.HasBody {
				continue
			}
			for _, ci := range b.callees[fi] {
				if b.ref[fi].UnionWith(b.ref[ci]) {
					changed = true
				}
				if b.mod[fi].UnionWith(b.mod[ci]) {
					changed = true
				}
			}
		}
	}
}

// virtualParams computes every function's virtual input and output
// parameters.
func (b *builder) virtualParams() {
	for fi, fn := range b.fns {
		recursive := b.pa.Recursive(fn)
		ownStack := func(v int) bool {
			o := b.vars[v].Obj
			return !recursive && o.Kind == ir.ObjStack && o.Fn == fn
		}
		// A chi at a call uses the old version too, so modified variables
		// are also inputs.
		all := bitset.New(len(b.vars))
		all.UnionWith(b.ref[fi])
		all.UnionWith(b.mod[fi])
		all.ForEach(func(v int) {
			if !ownStack(v) {
				b.in[fi] = append(b.in[fi], int32(v))
			}
		})
		b.mod[fi].ForEach(func(v int) {
			if !ownStack(v) {
				b.out[fi] = append(b.out[fi], int32(v))
			}
		})
	}
}

// callFootprint returns the union of the callees' virtual parameters
// (their inputs for mu, outputs for chi), sorted.
func (b *builder) callFootprint(callees []*ir.Function, params [][]int32) []int32 {
	var first []int32
	n := 0
	for _, callee := range callees {
		if ci, ok := b.fnIdx[callee]; ok && len(params[ci]) > 0 {
			if n == 0 {
				first = params[ci]
			}
			n++
		}
	}
	if n <= 1 {
		return first
	}
	b.buf = b.buf[:0]
	for _, callee := range callees {
		if ci, ok := b.fnIdx[callee]; ok {
			b.buf = append(b.buf, params[ci]...)
		}
	}
	slices.Sort(b.buf)
	return slices.Clone(slices.Compact(b.buf))
}

func (b *builder) memVars(vs []int32) []MemVar {
	out := make([]MemVar, len(vs))
	for i, v := range vs {
		out[i] = b.vars[v]
	}
	return out
}

// newDef allocates a Def with the next program-wide id.
func (b *builder) newDef() *Def {
	if len(b.defSlab) == cap(b.defSlab) {
		b.defSlab = make([]Def, 0, 256)
	}
	b.defSlab = append(b.defSlab, Def{ID: int32(b.info.NumDefs)})
	b.info.NumDefs++
	return &b.defSlab[len(b.defSlab)-1]
}

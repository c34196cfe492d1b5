package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/ast"
	"github.com/valueflow/usher/internal/instrument"
	"github.com/valueflow/usher/internal/ir"
	"github.com/valueflow/usher/internal/memssa"
	"github.com/valueflow/usher/internal/passes"
	"github.com/valueflow/usher/internal/pipeline"
	"github.com/valueflow/usher/internal/pointer"
	"github.com/valueflow/usher/internal/vfg"
)

// planSpecs are the plan specifications of usher.ExtendedConfigs, in the
// same order. Ops reach the plans through pipeline.Store.Plan, which
// takes a spec, not a usher.Config; the output check compares their
// fingerprints with plans made through usher.Session, so a spec that
// drifts from the usher configuration table fails the check.
var planSpecs = []pipeline.PlanSpec{
	{Name: "MSan", Full: true},
	{Name: "UsherTL", TopLevelOnly: true, MemoryFull: true},
	{Name: "UsherTL+AT"},
	{Name: "UsherOptI", OptI: true},
	{Name: "Usher", OptI: true, OptII: true},
	{Name: "Usher+OptIII", OptI: true, OptII: true, OptIII: true},
}

// analysis is what an analysis op's output is judged by: the six plans
// and the resolved Γ of both graph variants.
type analysis struct {
	plans  []*instrument.Plan
	gammas []*vfg.Gamma // full graph, then top-level-only graph
}

// digest renders an analysis as one hash: the full fingerprint of the
// Usher plan (the paper's configuration), the static counts of every
// plan and the Γ ⊥ bit vectors. Fingerprinting all six plans would cost
// a fifth of an op.
func (a analysis) digest() string {
	h := sha256.New()
	for _, p := range a.plans {
		st := p.StaticStats()
		fmt.Fprintf(h, "%s props=%d checks=%d items=%d\n", p.Name, st.Props, st.Checks, st.Items)
		if p.Name == usher.ConfigUsherFull.String() {
			io.WriteString(h, p.Fingerprint())
		}
	}
	for _, gm := range a.gammas {
		fmt.Fprintf(h, "bottom=%d", gm.BottomCount())
		if bits := gm.BottomBits(); bits != nil {
			for _, w := range bits.Words() {
				fmt.Fprintf(h, " %x", w)
			}
		}
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// compileSource runs the frontend and the O0+IM scalar pipeline through
// pipeline.ParseSource, CompileUnit and ApplyLevel, one layer per call.
func compileSource(c opCtx, file, src string) (*ir.Program, error) {
	tree, err := layer(c, "frontend.parse", func() (*ast.Program, error) {
		return pipeline.ParseSource(file, src, "", nil)
	}, nil)
	if err != nil {
		return nil, err
	}
	prog, err := layer(c, "frontend.unit", func() (*ir.Program, error) {
		return pipeline.CompileUnit(tree, "", nil)
	}, func(p *ir.Program) map[string]int64 {
		return map[string]int64{"instrs": int64(countInstrs(p))}
	})
	if err != nil {
		return nil, err
	}
	_, err = layer(c, "passes.scalar", func() (struct{}, error) {
		return struct{}{}, pipeline.ApplyLevel(prog, passes.O0IM, nil)
	}, nil)
	return prog, err
}

func countInstrs(p *ir.Program) int {
	n := 0
	for _, fn := range p.Funcs {
		for _, b := range fn.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// analyzeAll analyzes prog under the six configurations by calling the
// pipeline.Store accessors in dependency order, so that each call runs
// exactly one layer and, in a traced op, its span is that layer's self
// time. Traced and untraced ops run this same code; the references go
// through usher.Session instead (analyzeSession), so every op's output
// is checked against a second path to the same plans.
func analyzeAll(c opCtx, prog *ir.Program) (analysis, error) {
	st := pipeline.NewStore(prog, nil)
	if _, err := layer(c, "pointer", st.Pointer, func(pa *pointer.Result) map[string]int64 {
		return map[string]int64{"constraints": int64(pa.Stats.Constraints)}
	}); err != nil {
		return analysis{}, err
	}
	if _, err := layer(c, "memssa", st.MemSSA, func(m *memssa.Info) map[string]int64 {
		defs := 0
		for _, fi := range m.Funcs {
			defs += len(fi.AllDefs)
		}
		return map[string]int64{"defs": int64(defs)}
	}); err != nil {
		return analysis{}, err
	}
	var a analysis
	for _, tl := range []bool{false, true} {
		if _, err := layer(c, "vfg", func() (*vfg.Graph, error) { return st.Graph(tl) },
			func(g *vfg.Graph) map[string]int64 {
				edges := 0
				for _, n := range g.Nodes {
					edges += len(n.Deps)
				}
				return map[string]int64{"nodes": int64(len(g.Nodes)), "edges": int64(edges)}
			}); err != nil {
			return analysis{}, err
		}
	}
	for _, tl := range []bool{false, true} {
		gm, err := layer(c, "resolve", func() (*vfg.Gamma, error) { return st.Gamma(tl) },
			func(gm *vfg.Gamma) map[string]int64 {
				return map[string]int64{"bottom": int64(gm.BottomCount())}
			})
		if err != nil {
			return analysis{}, err
		}
		a.gammas = append(a.gammas, gm)
	}
	if _, err := layer(c, "vfgopt", st.OptII, func(o *pipeline.OptIIResult) map[string]int64 {
		return map[string]int64{"redirected": int64(o.Redirected)}
	}); err != nil {
		return analysis{}, err
	}
	for _, spec := range planSpecs {
		pr, err := layer(c, "instrument", func() (*pipeline.PlanResult, error) { return st.Plan(spec) },
			func(pr *pipeline.PlanResult) map[string]int64 {
				return map[string]int64{"items": int64(pr.Plan.StaticStats().Items)}
			})
		if err != nil {
			return analysis{}, err
		}
		a.plans = append(a.plans, pr.Plan)
	}
	return a, nil
}

// analyzeSession analyzes prog under usher.ExtendedConfigs through one
// usher.Session, which it returns for further use.
func analyzeSession(prog *ir.Program) (analysis, *usher.Session, error) {
	sess := usher.NewSession(prog)
	ans, err := sess.AnalyzeAll(usher.ExtendedConfigs)
	if err != nil {
		return analysis{}, nil, err
	}
	var a analysis
	for _, an := range ans {
		a.plans = append(a.plans, an.Plan)
	}
	for _, tl := range []bool{false, true} {
		_, gm, err := sess.Graph(tl)
		if err != nil {
			return analysis{}, nil, err
		}
		a.gammas = append(a.gammas, gm)
	}
	return a, sess, nil
}

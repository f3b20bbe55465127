package debug

import (
	"fmt"

	"cuttlego/internal/ast"
	"cuttlego/internal/cuttlesim"
	"cuttlego/internal/lang"
	"cuttlego/internal/sim"
)

// BreakWhenSource installs a conditional breakpoint written in the textual
// dialect, e.g.
//
//	dbg.BreakWhenSource("p_state.rd0() == pstate::ConfirmDowngrades")
//
// The expression must be 1-bit and effect-free (reads only). It is
// compiled once by CompileRowCondition; each evaluation reads the engine's
// register row and runs the compiled predicate over it.
func (d *Debugger) BreakWhenSource(src string) error {
	probe, err := CompileCondition(d.d, src)
	if err != nil {
		return err
	}
	d.BreakWhen(src, probe)
	return nil
}

// CompileCondition turns a textual predicate over a design's registers into
// a reusable evaluator that works against any sim.Engine for that design —
// not just the debugger's hooked simulator. It reads the engine's register
// row (sim.ReadRow) and evaluates the CompileRowCondition predicate on it.
// The evaluator is not safe for concurrent use.
func CompileCondition(design *ast.Design, src string) (func(sim.Engine) bool, error) {
	eval, err := CompileRowCondition(design, src)
	if err != nil {
		return nil, err
	}
	row := make([]uint64, len(design.Registers))
	return func(e sim.Engine) bool {
		sim.ReadRow(e, row)
		return eval(row)
	}, nil
}

// CompileRowCondition compiles a textual predicate into an evaluator over
// register rows: row[i] is register i's value in declaration order, the
// order sim.ReadRow fills and trace recordings store. This is the form
// watched stepping and trace queries evaluate, once per cycle or stored
// row, so it must be cheap.
//
// The expression becomes the one rule of a small probe design — the
// registers it reads plus a 1-bit $cond register it writes — compiled by
// cuttlesim's closure backend at LStatic. An evaluation copies the read
// registers from the row into the probe by index, runs one probe cycle,
// and reads $cond. The evaluator is not safe for concurrent use.
func CompileRowCondition(design *ast.Design, src string) (func(row []uint64) bool, error) {
	expr, err := lang.ParseExpr(design, src)
	if err != nil {
		return nil, err
	}
	if err := checkEffectFree(expr); err != nil {
		return nil, err
	}
	reads := ReadSet(design, expr)
	tmp := ast.NewDesign("$probe")
	for _, i := range reads {
		r := design.Registers[i]
		tmp.RegB(r.Name, r.Type, r.Init)
	}
	tmp.Reg("$cond", ast.Bits(1), 0)
	tmp.Rule("$probe", ast.Wr0("$cond", expr))
	if err := tmp.Check(); err != nil {
		return nil, fmt.Errorf("condition %q: %w", src, err)
	}
	probe, err := cuttlesim.New(tmp, cuttlesim.Options{Level: cuttlesim.LStatic, Backend: cuttlesim.Closure})
	if err != nil {
		return nil, err
	}
	cond := len(reads)
	return func(row []uint64) bool {
		for k, i := range reads {
			probe.SetRegValue(k, row[i])
		}
		probe.Cycle()
		return probe.RegValue(cond) != 0
	}, nil
}

// ReadSet returns the indices of the design registers an expression reads,
// in first-read order, each once. Names the design does not declare are
// left out (checking the expression reports them).
func ReadSet(design *ast.Design, n *ast.Node) []int {
	var out []int
	seen := make(map[int]bool)
	var walk func(n *ast.Node)
	walk = func(n *ast.Node) {
		if n == nil {
			return
		}
		if n.Kind == ast.KRead && design.HasReg(n.Name) {
			if i := design.RegIndex(n.Name); !seen[i] {
				seen[i] = true
				out = append(out, i)
			}
		}
		walk(n.A)
		walk(n.B)
		walk(n.C)
		for _, it := range n.Items {
			walk(it)
		}
	}
	walk(n)
	return out
}

// checkEffectFree rejects writes and aborts inside a breakpoint condition.
func checkEffectFree(n *ast.Node) error {
	if n == nil {
		return nil
	}
	switch n.Kind {
	case ast.KWrite:
		return fmt.Errorf("breakpoint conditions must not write registers (%s)", n.Name)
	case ast.KFail:
		return fmt.Errorf("breakpoint conditions must not abort")
	case ast.KExtCall:
		return fmt.Errorf("breakpoint conditions must not call external functions")
	}
	for _, c := range []*ast.Node{n.A, n.B, n.C} {
		if err := checkEffectFree(c); err != nil {
			return err
		}
	}
	for _, it := range n.Items {
		if err := checkEffectFree(it); err != nil {
			return err
		}
	}
	return nil
}

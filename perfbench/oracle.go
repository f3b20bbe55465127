package main

import (
	"fmt"
	"strings"

	"cuttlego/internal/ast"
	"cuttlego/internal/bench"
	"cuttlego/internal/bits"
	"cuttlego/internal/cuttlesim"
	"cuttlego/internal/debug"
	"cuttlego/internal/sim"
)

// haltBudget bounds the search for the rv32i halt: the primes testbench
// stops well before it.
const haltBudget = 4_000_000

// shadow is an in-process reference run of one catalogue design under the
// static closure engine with the design's own testbench: every register
// value and the state digest at each cycle up to a row limit, and the
// digest at chosen cycles beyond it. Every answer the daemon gives is
// checked against it.
type shadow struct {
	design  *ast.Design
	nregs   int
	rows    []uint64          // rows[c*nregs+i]: register i after c cycles, c <= limit
	digests []uint64          // digests[c], c <= limit
	at      map[uint64]uint64 // digest at each needed cycle
	idx     map[string]int    // register index by name
	halt    uint64            // cycle whose testbench check stopped the run; 0 if none within the budget
}

// runShadow runs design name to the furthest of need and limit (or, with
// toHalt, until the testbench stops), keeping rows up to limit.
func runShadow(name string, limit uint64, need []uint64, toHalt bool) (*shadow, error) {
	bm, ok := bench.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("no catalogue design %q", name)
	}
	inst := bm.New()
	e, err := cuttlesim.New(inst.Design, cuttlesim.Options{Level: cuttlesim.LStatic, Backend: cuttlesim.Closure})
	if err != nil {
		return nil, err
	}
	tb := inst.Bench
	if tb == nil {
		tb = sim.NopBench{}
	}
	d := inst.Design
	sh := &shadow{design: d, nregs: len(d.Registers), at: make(map[uint64]uint64), idx: make(map[string]int)}
	for i, r := range d.Registers {
		sh.idx[r.Name] = i
	}
	wanted := make(map[uint64]bool, len(need))
	end := limit
	for _, c := range need {
		wanted[c] = true
		if c > end {
			end = c
		}
	}
	if toHalt {
		end = haltBudget
	}
	sh.rows = make([]uint64, 0, int(limit+1)*sh.nregs)
	sh.digests = make([]uint64, 0, limit+1)
	visit := func(c uint64) {
		if c <= limit {
			for _, r := range d.Registers {
				sh.rows = append(sh.rows, e.Reg(r.Name).Val)
			}
			sh.digests = append(sh.digests, sim.StateDigest(e))
		}
		if wanted[c] {
			sh.at[c] = sim.StateDigest(e)
		}
	}
	visit(0)
	for c := uint64(1); c <= end; c++ {
		tb.BeforeCycle(e)
		e.Cycle()
		cont := tb.AfterCycle(e)
		visit(c)
		if !cont {
			sh.halt = c
			break
		}
	}
	for _, c := range need {
		if _, ok := sh.at[c]; !ok {
			return nil, fmt.Errorf("%s: reference run stopped at cycle %d, before needed cycle %d", name, sh.halt, c)
		}
	}
	return sh, nil
}

func (sh *shadow) row(c uint64) []uint64 {
	return sh.rows[int(c)*sh.nregs : int(c+1)*sh.nregs]
}

func (sh *shadow) limit() uint64 { return uint64(len(sh.digests)) - 1 }

// checkBudget is the halt guard: an rv32i sample that reaches the halt
// cycle would mix two cost regimes (the core spins once the testbench
// stops), so its budget is refused.
func checkBudget(design string, end, halt uint64) error {
	if halt != 0 && end >= halt {
		return fmt.Errorf("%s budget ends at cycle %d, at or past the testbench halt at cycle %d", design, end, halt)
	}
	return nil
}

// breakCondition finds an equality predicate over register values that
// first holds exactly at cycle fire (at no cycle in [1, fire)), so a
// breakpoint on it stops at a cycle known in advance. Registers are added
// greedily, each one ruling out earlier cycles where the conjunction so far
// also held, until none is left. The result is confirmed with the same
// compiled-condition evaluator the daemon uses.
func (sh *shadow) breakCondition(fire uint64) (string, error) {
	if fire > sh.limit() {
		return "", fmt.Errorf("breakpoint cycle %d beyond reference rows (%d)", fire, sh.limit())
	}
	want := sh.row(fire)
	alive := make([]uint64, 0, fire) // earlier cycles the conjunction still matches
	for c := uint64(1); c < fire; c++ {
		alive = append(alive, c)
	}
	var terms []string
	for i, r := range sh.design.Registers {
		if len(alive) == 0 {
			break
		}
		bt, ok := r.Type.(ast.BitsType)
		if !ok || bt.W == 0 {
			continue
		}
		kept := alive[:0:0]
		for _, c := range alive {
			if sh.rows[int(c)*sh.nregs+i] == want[i] {
				kept = append(kept, c)
			}
		}
		if len(kept) < len(alive) {
			terms = append(terms, fmt.Sprintf("(%s.rd0() == %d'd%d)", r.Name, bt.W, want[i]))
			alive = kept
		}
	}
	if len(alive) > 0 || len(terms) == 0 {
		return "", fmt.Errorf("%s: the state at cycle %d also occurs at cycle %v", sh.design.Name, fire, alive)
	}
	cond := strings.Join(terms, " & ")
	eval, err := debug.CompileCondition(sh.design, cond)
	if err != nil {
		return "", err
	}
	if !eval(sh.rowEngine(fire)) || eval(sh.rowEngine(fire-1)) {
		return "", fmt.Errorf("condition %q disagrees with the reference rows", cond)
	}
	return cond, nil
}

// rowEngine presents one reference row as a read-only sim.Engine, so
// compiled conditions can be evaluated against it.
func (sh *shadow) rowEngine(c uint64) *rowEngine {
	return &rowEngine{sh: sh, c: c}
}

type rowEngine struct {
	sh *shadow
	c  uint64
}

func (e *rowEngine) Design() *ast.Design { return e.sh.design }
func (e *rowEngine) Cycle()              {}
func (e *rowEngine) Reg(name string) bits.Bits {
	i := e.sh.idx[name]
	return bits.Bits{Width: e.sh.design.Registers[i].Type.BitWidth(), Val: e.sh.rows[int(e.c)*e.sh.nregs+i]}
}
func (e *rowEngine) SetReg(string, bits.Bits) {}
func (e *rowEngine) CycleCount() uint64       { return e.c }
func (e *rowEngine) RuleFired(string) bool    { return false }

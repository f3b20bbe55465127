package cuttlesim

import (
	"fmt"
	"runtime"

	"cuttlego/internal/analysis"
	"cuttlego/internal/ast"
	"cuttlego/internal/bits"
	"cuttlego/internal/diag"
	"cuttlego/internal/sim"
)

// Simulator is a compiled Cuttlesim model of one design.
type Simulator struct {
	d    *ast.Design
	an   *analysis.Result
	opts Options
	m    *machine

	sched    []int
	rules    []valFn // closure backend: one per schedule position
	bytecode []ruleCode
	warnings []string
	profile  []RuleStat
	par      *parEngine // parallel engine: wave plan + worker pool
}

var _ sim.Engine = (*Simulator)(nil)
var _ sim.Snapshotter = (*Simulator)(nil)
var _ sim.RowReader = (*Simulator)(nil)

// New compiles a checked design into a simulator.
func New(d *ast.Design, opts Options) (_ *Simulator, err error) {
	defer diag.Guard("cuttlesim: compile simulator", &err)
	if !d.Checked() {
		return nil, fmt.Errorf("cuttlesim: design %q is not checked", d.Name)
	}
	for _, r := range d.Registers {
		if r.Type.BitWidth() > bits.MaxWidth {
			return nil, fmt.Errorf("cuttlesim: register %q wider than %d bits", r.Name, bits.MaxWidth)
		}
	}
	an, err := analysis.Analyze(d)
	if err != nil {
		return nil, err
	}
	if opts.Hook != nil && opts.Backend != Closure {
		return nil, fmt.Errorf("cuttlesim: debug hooks require the closure backend")
	}
	if err := validateParallel(opts); err != nil {
		return nil, err
	}
	s := &Simulator{d: d, an: an, opts: opts, sched: d.ScheduledRules()}
	s.m = newMachine(d, an, opts)
	if opts.Profile {
		s.profile = make([]RuleStat, len(d.Rules))
		for i := range d.Rules {
			s.profile[i].Rule = d.Rules[i].Name
		}
	}
	for r := range an.Regs {
		if an.Regs[r].Goldberg {
			s.warnings = append(s.warnings,
				fmt.Sprintf("register %q is read after being written within a rule (Goldberg pattern); keeping exact split data fields for it", d.Registers[r].Name))
		}
	}

	switch opts.Backend {
	case Closure:
		c := &compiler{d: d, s: s, opts: opts}
		s.rules = make([]valFn, len(s.sched))
		for i, ri := range s.sched {
			c.env = c.env[:0]
			c.slots = 0
			s.rules[i] = c.compile(d.Rules[ri].Body)
		}
		s.m.locals = make([]uint64, c.maxSlots)
	case Bytecode:
		asm := &assembler{d: d, s: s, opts: opts}
		s.bytecode = make([]ruleCode, len(s.sched))
		for i, ri := range s.sched {
			s.bytecode[i] = asm.assemble(d.Rules[ri].Body)
		}
		s.m.locals = make([]uint64, asm.maxSlots)
		s.m.stack = make([]uint64, asm.maxStack+1)
	default:
		return nil, fmt.Errorf("cuttlesim: unknown backend %v", opts.Backend)
	}
	if opts.Workers > 1 {
		s.par = newParEngine(s, opts.Workers, opts.MinGrain)
		if s.par.chans != nil {
			par := s.par
			runtime.SetFinalizer(s, func(*Simulator) { par.shutdown() })
		}
	}
	return s, nil
}

// MustNew is New for statically known-good designs.
func MustNew(d *ast.Design, opts Options) *Simulator {
	s, err := New(d, opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Warnings reports compile-time diagnostics (e.g. Goldberg patterns).
func (s *Simulator) Warnings() []string { return s.warnings }

// Analysis exposes the static-analysis result the model was compiled with.
func (s *Simulator) Analysis() *analysis.Result { return s.an }

// Options returns the options the simulator was compiled with.
func (s *Simulator) Options() Options { return s.opts }

// Design implements sim.Engine.
func (s *Simulator) Design() *ast.Design { return s.d }

// CycleCount implements sim.Engine.
func (s *Simulator) CycleCount() uint64 { return s.m.cycle }

// Reg implements sim.Engine.
func (s *Simulator) Reg(name string) bits.Bits {
	i := s.d.RegIndex(name)
	return bits.Bits{Width: s.d.Registers[i].Type.BitWidth(), Val: s.m.regValue(i)}
}

// ReadRow implements sim.RowReader.
func (s *Simulator) ReadRow(dst []uint64) {
	for i := range dst {
		dst[i] = s.m.regValue(i)
	}
}

// RegValue returns register i's current value (declaration order).
func (s *Simulator) RegValue(i int) uint64 { return s.m.regValue(i) }

// SetRegValue overwrites register i's current value; v must fit the
// register's width.
func (s *Simulator) SetRegValue(i int, v uint64) { s.m.setRegValue(i, v) }

// SetReg implements sim.Engine.
func (s *Simulator) SetReg(name string, v bits.Bits) {
	i := s.d.RegIndex(name)
	if v.Width != s.d.Registers[i].Type.BitWidth() {
		panic(fmt.Sprintf("cuttlesim: SetReg %s width %d != %d", name, v.Width, s.d.Registers[i].Type.BitWidth()))
	}
	s.m.setRegValue(i, v.Val)
}

// RuleFired implements sim.Engine.
func (s *Simulator) RuleFired(rule string) bool { return s.m.fired[s.d.RuleIndex(rule)] }

// Cycle implements sim.Engine. At LActivity, parked rules (skippable rules
// whose last abort was at an explicit fail node) are skipped while their
// read set is clean; see activity.go for the protocol and its soundness
// argument.
func (s *Simulator) Cycle() {
	if s.par != nil {
		s.cycleParallel()
		return
	}
	m := s.m
	act := m.act
	hook := s.opts.Hook
	m.beginCycle()
	allSkipped := true
	if s.opts.Backend == Closure {
		for i, ri := range s.sched {
			if act != nil && act.parkGen[i] != 0 {
				if !act.dirtySince(i) {
					m.fired[ri] = false
					if s.profile != nil {
						s.profile[ri].recordSkip()
					}
					continue
				}
				act.unpark(i)
			}
			allSkipped = false
			m.beginRule()
			if hook != nil {
				hook.OnRuleStart(ri)
			}
			m.failClean = false
			_, ok := s.rules[i](m)
			if ok {
				m.commitRule(i)
				if act != nil {
					act.commit(i)
				}
			} else {
				m.failRule(i)
				if act != nil && m.failGuard && act.skippable[i] {
					act.park(i)
				}
			}
			m.fired[ri] = ok
			if s.profile != nil {
				s.profile[ri].record(ok)
			}
			if hook != nil {
				hook.OnRuleEnd(ri, ok)
			}
		}
	} else {
		for i, ri := range s.sched {
			if act != nil && act.parkGen[i] != 0 {
				if !act.dirtySince(i) {
					m.fired[ri] = false
					if s.profile != nil {
						s.profile[ri].recordSkip()
					}
					continue
				}
				act.unpark(i)
			}
			allSkipped = false
			m.beginRule()
			m.failClean = false
			ok := m.exec(s.bytecode[i])
			if ok {
				m.commitRule(i)
				if act != nil {
					act.commit(i)
				}
			} else {
				m.failRule(i)
				if act != nil && m.failGuard && act.skippable[i] {
					act.park(i)
				}
			}
			m.fired[ri] = ok
			if s.profile != nil {
				s.profile[ri].record(ok)
			}
		}
	}
	m.endCycle()
	m.cycle++
	if act != nil && allSkipped {
		act.quiesceGen = act.gen
	}
}

// Advance implements sim.Advancer: it executes exactly n cycles, using the
// quiescence fast path when the design can no longer change state. A design
// is quiescent when every scheduled rule is parked on a clean read set — the
// just-executed cycle skipped every position and committed nothing — so all
// remaining cycles are replays of it: cycle accounting and per-rule profile
// counters advance, registers and fired flags are already exact. Advance is
// only reachable with no testbench attached, and the fast path only exists
// at LActivity with no hook or coverage observer (otherwise every cycle runs
// in full).
func (s *Simulator) Advance(n uint64) uint64 {
	act := s.m.act
	for i := uint64(0); i < n; i++ {
		if act != nil && act.quiescent(len(s.sched)) {
			k := n - i
			s.m.cycle += k
			if s.profile != nil {
				for _, ri := range s.sched {
					s.profile[ri].Attempts += k
					s.profile[ri].Skipped += k
				}
			}
			break
		}
		s.Cycle()
	}
	return n
}

// RuleStat is one rule's profile: how often it was attempted and how often
// it committed. Attempts minus commits is the abort count — the number the
// paper's performance-debugging case study chases.
type RuleStat struct {
	Rule     string
	Attempts uint64
	Commits  uint64
	// Skipped counts aborts the activity scheduler predicted without running
	// the rule (LActivity only). Skipped aborts are included in Attempts, so
	// Attempts, Commits, and Aborts() are identical across levels; Skipped
	// reports how many of those aborts cost nothing.
	Skipped uint64
}

func (r *RuleStat) record(ok bool) {
	r.Attempts++
	if ok {
		r.Commits++
	}
}

func (r *RuleStat) recordSkip() {
	r.Attempts++
	r.Skipped++
}

// Aborts returns how many attempts failed.
func (r RuleStat) Aborts() uint64 { return r.Attempts - r.Commits }

// RuleStats returns per-rule profiles; the simulator must have been built
// with Options.Profile.
func (s *Simulator) RuleStats() []RuleStat {
	if s.profile == nil {
		return nil
	}
	out := make([]RuleStat, len(s.profile))
	copy(out, s.profile)
	return out
}

// Snapshot implements sim.Snapshotter.
func (s *Simulator) Snapshot() sim.Snapshot {
	regs := make([]bits.Bits, len(s.d.Registers))
	for i, r := range s.d.Registers {
		regs[i] = bits.Bits{Width: r.Type.BitWidth(), Val: s.m.regValue(i)}
	}
	return sim.Snapshot{Cycle: s.m.cycle, Regs: regs}
}

// Restore implements sim.Snapshotter.
func (s *Simulator) Restore(snap sim.Snapshot) {
	for i := range snap.Regs {
		s.m.setRegValue(i, snap.Regs[i].Val)
	}
	s.m.cycle = snap.Cycle
	for i := range s.m.fired {
		s.m.fired[i] = false
	}
}

// Coverage returns a copy of the per-node execution counters; the simulator
// must have been built with Options.Coverage.
func (s *Simulator) Coverage() []uint64 {
	if s.m.cov == nil {
		return nil
	}
	out := make([]uint64, len(s.m.cov))
	copy(out, s.m.cov)
	return out
}

// ResetCoverage zeroes the execution counters.
func (s *Simulator) ResetCoverage() {
	for i := range s.m.cov {
		s.m.cov[i] = 0
	}
}

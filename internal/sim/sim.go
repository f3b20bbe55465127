// Package sim defines the interface shared by every simulation pipeline in
// this module — the reference interpreter (package interp), the Cuttlesim
// compiler's engines (package cuttlesim), and the circuit-level simulator
// (package rtlsim) — so that designs, testbenches, equivalence tests, and
// benchmarks are written once and run against all of them.
package sim

import (
	"context"

	"cuttlego/internal/ast"
	"cuttlego/internal/bits"
	"cuttlego/internal/diag"
)

// Engine is a cycle-accurate simulator of one checked design. Register
// accessors address the publicly observable state: values as of the
// beginning of the current (not yet executed) cycle. SetReg models the
// testbench driving input registers between cycles.
type Engine interface {
	// Design returns the design being simulated.
	Design() *ast.Design
	// Cycle executes one clock cycle.
	Cycle()
	// Reg returns the named register's current (beginning-of-cycle) value.
	Reg(name string) bits.Bits
	// SetReg overwrites the named register's current value.
	SetReg(name string, v bits.Bits)
	// CycleCount returns how many cycles have executed.
	CycleCount() uint64
	// RuleFired reports whether the named rule committed during the most
	// recently executed cycle.
	RuleFired(rule string) bool
}

// Snapshotter is implemented by engines whose full architectural state can
// be captured and restored; the debugger's reverse execution relies on it.
type Snapshotter interface {
	// Snapshot captures the architectural state and cycle count.
	Snapshot() Snapshot
	// Restore rewinds the engine to a previously captured snapshot.
	Restore(Snapshot)
}

// Snapshot is a captured engine state: the cycle count plus every register
// in declaration order. It is wire-serializable (MarshalBinary /
// UnmarshalBinary in snapshot.go) so engine state can be checkpointed to
// disk, shipped over RPC, and restored into a fresh engine.
type Snapshot struct {
	Cycle uint64
	Regs  []bits.Bits
	// Wide is an optional parallel store for registers wider than 64 bits:
	// when non-nil, a nonzero-width Wide[i] overrides Regs[i]. Today's
	// engines cap registers at 64 bits and never populate it, but the
	// snapshot format carries wide registers so a frontend lifting that cap
	// does not need a format revision.
	Wide []bits.Wide
}

// Advancer is implemented by engines that can execute a whole run of cycles
// more cheaply than calling Cycle in a loop — e.g. an activity-driven engine
// that fast-forwards once the design is quiescent. Advance(n) must be
// observably identical to n Cycle calls (register state, fired flags, cycle
// count, profiles) and must execute exactly n cycles, returning n. Run and
// RunContext use it only when no testbench is attached, since a testbench
// must see every cycle boundary.
type Advancer interface {
	Advance(n uint64) uint64
}

// Testbench drives an engine from the outside: it may set input registers
// before each cycle and observe output registers (applying memory writes,
// collecting results) after each cycle. Testbenches must be deterministic
// functions of the observed engine state and cycle number so that replays
// (reverse debugging) and cross-engine comparisons agree.
type Testbench interface {
	// BeforeCycle runs before the engine executes a cycle.
	BeforeCycle(e Engine)
	// AfterCycle runs after; returning false stops Run early.
	AfterCycle(e Engine) bool
}

// NopBench is a Testbench that does nothing.
type NopBench struct{}

// BeforeCycle implements Testbench.
func (NopBench) BeforeCycle(Engine) {}

// AfterCycle implements Testbench.
func (NopBench) AfterCycle(Engine) bool { return true }

// Run drives the engine for at most n cycles under the testbench, returning
// the number of cycles actually executed.
func Run(e Engine, tb Testbench, n uint64) uint64 {
	if tb == nil {
		if a, ok := e.(Advancer); ok {
			return a.Advance(n)
		}
		tb = NopBench{}
	}
	var i uint64
	for ; i < n; i++ {
		tb.BeforeCycle(e)
		e.Cycle()
		if !tb.AfterCycle(e) {
			return i + 1
		}
	}
	return i
}

// ctxCheckInterval is how many cycles RunContext executes between
// cancellation checks: rare enough that the hot loop stays hot, frequent
// enough that a runaway simulation stops within microseconds of a timeout.
const ctxCheckInterval = 1024

// RunContext is Run under a context: the simulation stops early when ctx is
// cancelled (deadline, timeout, interrupt), returning the cycles executed so
// far along with ctx.Err(). An engine panic (a toolchain bug, since the
// design was checked) is converted to an *diag.Internal error rather than
// crashing the caller.
func RunContext(ctx context.Context, e Engine, tb Testbench, n uint64) (cycles uint64, err error) {
	defer diag.Guard("sim: run", &err)
	if tb == nil {
		if a, ok := e.(Advancer); ok {
			var i uint64
			for i < n {
				select {
				case <-ctx.Done():
					return i, ctx.Err()
				default:
				}
				chunk := n - i
				if chunk > ctxCheckInterval {
					chunk = ctxCheckInterval
				}
				i += a.Advance(chunk)
			}
			return i, nil
		}
		tb = NopBench{}
	}
	var i uint64
	for ; i < n; i++ {
		if i%ctxCheckInterval == 0 {
			select {
			case <-ctx.Done():
				return i, ctx.Err()
			default:
			}
		}
		tb.BeforeCycle(e)
		e.Cycle()
		if !tb.AfterCycle(e) {
			return i + 1, nil
		}
	}
	return i, nil
}

// RowReader is implemented by engines that can copy every register's
// current value into a row, in declaration order, without name lookups.
// Watched stepping reads one row per cycle for trace recording and
// breakpoint predicates, so this is the per-cycle observation path.
type RowReader interface {
	// ReadRow fills dst[i] with register i's value; len(dst) is the
	// design's register count.
	ReadRow(dst []uint64)
}

// ReadRow fills dst with the engine's register row. Every engine in this
// module implements RowReader; the name-keyed fallback exists for foreign
// Engine implementations.
func ReadRow(e Engine, dst []uint64) {
	if r, ok := e.(RowReader); ok {
		r.ReadRow(dst)
		return
	}
	for i, r := range e.Design().Registers {
		dst[i] = e.Reg(r.Name).Val
	}
}

// StateOf captures every register of an engine, in declaration order. Used
// by cross-engine equivalence tests.
func StateOf(e Engine) []bits.Bits {
	d := e.Design()
	out := make([]bits.Bits, len(d.Registers))
	for i, r := range d.Registers {
		out[i] = e.Reg(r.Name)
	}
	return out
}

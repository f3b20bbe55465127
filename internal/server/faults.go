package server

import (
	"fmt"

	"cuttlego/internal/ast"
	"cuttlego/internal/bits"
	"cuttlego/internal/faultinj"
	"cuttlego/internal/sim"
)

// faultEngine wraps a session's engine so the injector can blow up
// individual cycles (op "engine.cycle"): Panic rules panic mid-step —
// recovered by the diag.Guard boundary and surfaced as a quarantine —
// Stall/Latency rules sleep inside a cycle, which is what trips the step
// watchdog, and error kinds panic too (an engine cycle has no error
// channel). The wrapper costs one injector call per cycle and exists only
// when fault injection is configured; production sessions run the bare
// engine.
type faultEngine struct {
	inner sim.Engine
	inj   *faultinj.Injector
}

func (f *faultEngine) Design() *ast.Design { return f.inner.Design() }

func (f *faultEngine) Cycle() {
	if err := f.inj.Invoke("engine.cycle"); err != nil {
		panic(fmt.Sprintf("injected engine failure: %v", err))
	}
	f.inner.Cycle()
}

func (f *faultEngine) Reg(name string) bits.Bits       { return f.inner.Reg(name) }
func (f *faultEngine) SetReg(name string, v bits.Bits) { f.inner.SetReg(name, v) }
func (f *faultEngine) ReadRow(dst []uint64)            { sim.ReadRow(f.inner, dst) }
func (f *faultEngine) CycleCount() uint64              { return f.inner.CycleCount() }
func (f *faultEngine) RuleFired(rule string) bool      { return f.inner.RuleFired(rule) }

func (f *faultEngine) Close() error {
	if c, ok := f.inner.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// faultSnapEngine adds Snapshotter forwarding: interface embedding does not
// forward type assertions, so a separate wrapper type is built only when
// the inner engine actually snapshots — otherwise a non-durable session
// would suddenly claim checkpoint support.
type faultSnapEngine struct{ faultEngine }

func (f *faultSnapEngine) Snapshot() sim.Snapshot { return f.inner.(sim.Snapshotter).Snapshot() }
func (f *faultSnapEngine) Restore(s sim.Snapshot) { f.inner.(sim.Snapshotter).Restore(s) }

// wrapEngine threads the injector around an engine; a nil injector returns
// the engine untouched.
func wrapEngine(eng sim.Engine, inj *faultinj.Injector) sim.Engine {
	if inj == nil {
		return eng
	}
	fe := faultEngine{inner: eng, inj: inj}
	if _, ok := eng.(sim.Snapshotter); ok {
		return &faultSnapEngine{fe}
	}
	return &fe
}

// underlying unwraps a fault wrapper for callers that need the concrete
// engine type (the profile endpoint's *cuttlesim.Simulator assertion).
func underlying(e sim.Engine) sim.Engine {
	switch f := e.(type) {
	case *faultEngine:
		return f.inner
	case *faultSnapEngine:
		return f.inner
	}
	return e
}

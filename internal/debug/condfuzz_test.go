package debug_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cuttlego/internal/ast"
	"cuttlego/internal/bench"
	"cuttlego/internal/bits"
	"cuttlego/internal/cuttlesim"
	"cuttlego/internal/debug"
	"cuttlego/internal/difftest"
	"cuttlego/internal/interp"
	"cuttlego/internal/lang"
	"cuttlego/internal/sim"
)

// interpProbe is the reference evaluator the compiled row predicate must
// agree with: the predicate is the one rule of a probe design holding
// every register of the debugged design, run for one cycle by the
// reference interpreter after copying the row in by name.
func interpProbe(design *ast.Design, src string) (func(row []uint64) bool, error) {
	expr, err := lang.ParseExpr(design, src)
	if err != nil {
		return nil, err
	}
	tmp := ast.NewDesign("$probe")
	for _, r := range design.Registers {
		tmp.RegB(r.Name, r.Type, r.Init)
	}
	tmp.Reg("$cond", ast.Bits(1), 0)
	tmp.Rule("$probe", ast.Wr0("$cond", expr))
	if err := tmp.Check(); err != nil {
		return nil, err
	}
	eval, err := interp.New(tmp)
	if err != nil {
		return nil, err
	}
	return func(row []uint64) bool {
		for i, r := range design.Registers {
			eval.SetReg(r.Name, bits.New(r.Type.BitWidth(), row[i]))
		}
		eval.Cycle()
		return eval.Reg("$cond").Bool()
	}, nil
}

// randomRow draws a value for every register, masked to its width. Half
// the registers repeat a value from prev (when given), so equalities built
// against one row keep firing on the next.
func randomRow(r *rand.Rand, d *ast.Design, prev []uint64) []uint64 {
	row := make([]uint64, len(d.Registers))
	for i, reg := range d.Registers {
		if prev != nil && r.Intn(2) == 0 {
			row[i] = prev[i]
			continue
		}
		row[i] = r.Uint64() & bits.Mask(reg.Type.BitWidth())
	}
	return row
}

// predGen writes random effect-free 1-bit predicates in the textual
// dialect over a design's registers: comparisons (==, !=, <u) of reads
// through either port, struct fields and enum members against constants
// (often taken from row, so they fire), masked reads, and !, & and |
// combinations of those.
type predGen struct {
	r   *rand.Rand
	d   *ast.Design
	row []uint64
}

func lit(w int, v uint64) string { return fmt.Sprintf("%d'd%d", w, v&bits.Mask(w)) }

func (g *predGen) value(i, w int) uint64 {
	if g.r.Intn(2) == 0 {
		return g.row[i]
	}
	return g.r.Uint64()
}

func (g *predGen) read(name string) string {
	if g.r.Intn(3) == 0 {
		return name + ".rd1()"
	}
	return name + ".rd0()"
}

// atom is one comparison over register i.
func (g *predGen) atom(i int) string {
	reg := g.d.Registers[i]
	w := reg.Type.BitWidth()
	rd := g.read(reg.Name)
	if w == 0 {
		return fmt.Sprintf("%s == %s", rd, g.read(reg.Name))
	}
	switch t := reg.Type.(type) {
	case *ast.EnumType:
		m := g.r.Intn(len(t.Members))
		if g.r.Intn(2) == 0 {
			return fmt.Sprintf("%s == %s::%s", rd, t.Name, t.Members[m])
		}
		return fmt.Sprintf("%s != %s::%s", rd, t.Name, t.Members[m])
	case *ast.StructType:
		f := t.Fields[g.r.Intn(len(t.Fields))]
		fw := f.Type.BitWidth()
		v := g.value(i, fw) >> t.Offset(f.Name)
		if e, ok := f.Type.(*ast.EnumType); ok {
			return fmt.Sprintf("%s.%s == %s::%s", rd, f.Name, e.Name, e.Members[g.r.Intn(len(e.Members))])
		}
		return fmt.Sprintf("%s.%s == %s", rd, f.Name, lit(fw, v))
	}
	v := g.value(i, w)
	switch g.r.Intn(4) {
	case 0:
		return fmt.Sprintf("%s != %s", rd, lit(w, v))
	case 1:
		return fmt.Sprintf("%s <u %s", rd, lit(w, v))
	case 2:
		m := g.r.Uint64()
		return fmt.Sprintf("(%s & %s) == %s", rd, lit(w, m), lit(w, v&m))
	}
	return fmt.Sprintf("%s == %s", rd, lit(w, v))
}

func (g *predGen) pred(depth int) string {
	if depth == 0 || g.r.Intn(3) == 0 {
		return g.atom(g.r.Intn(len(g.d.Registers)))
	}
	switch g.r.Intn(3) {
	case 0:
		return "!(" + g.pred(depth-1) + ")"
	case 1:
		return "(" + g.pred(depth-1) + ") & (" + g.pred(depth-1) + ")"
	}
	return "(" + g.pred(depth-1) + ") | (" + g.pred(depth-1) + ")"
}

// conjunction is the breakpoint shape perfbench and kdbg users write:
// (a.rd0() == W'dV) & (b.rd0() == W'dV) & ..., with values from row.
func (g *predGen) conjunction(n int) string {
	terms := make([]string, 0, n)
	for _, i := range g.r.Perm(len(g.d.Registers)) {
		reg := g.d.Registers[i]
		if w := reg.Type.BitWidth(); w > 0 && len(terms) < n {
			terms = append(terms, fmt.Sprintf("(%s.rd0() == %s)", reg.Name, lit(w, g.row[i])))
		}
	}
	if len(terms) == 0 {
		return g.atom(0)
	}
	return strings.Join(terms, " & ")
}

// FuzzCompiledCondition checks the compiled row predicate against the
// interp probe over generated designs, predicates and register rows.
// predSeed%4 == 0 selects the conjunction shape.
func FuzzCompiledCondition(f *testing.F) {
	// The last seed reads a register only through rd1.
	for _, s := range [][3]int64{{1, 0, 1}, {2, 4, 2}, {3, 8, 3}, {4, 1, 4}, {5, 2, 5}, {6, 3, 6}, {7, 5, 7}, {42, 12, 9}, {156, -355, -30}} {
		f.Add(s[0], s[1], s[2])
	}
	f.Fuzz(func(t *testing.T, designSeed, predSeed, rowSeed int64) {
		d := difftest.Generate(designSeed)
		if err := d.Check(); err != nil {
			t.Skipf("generated design does not check: %v", err)
		}
		r := rand.New(rand.NewSource(rowSeed))
		g := &predGen{r: rand.New(rand.NewSource(predSeed)), d: d, row: randomRow(r, d, nil)}
		var src string
		if predSeed%4 == 0 {
			src = g.conjunction(1 + int(uint64(predSeed)>>2)%4)
		} else {
			src = g.pred(3)
		}
		fast, err := debug.CompileRowCondition(d, src)
		if err != nil {
			t.Fatalf("CompileRowCondition(%q): %v", src, err)
		}
		slow, err := interpProbe(d, src)
		if err != nil {
			t.Fatalf("interp probe(%q): %v", src, err)
		}
		row := g.row
		for k := 0; k < 16; k++ {
			if got, want := fast(row), slow(row); got != want {
				t.Fatalf("design %d, %q on row %#x: compiled %v, interp probe %v", designSeed, src, row, got, want)
			}
			row = randomRow(r, d, row)
		}
	})
}

// TestCompiledConditionOnCatalogRuns evaluates perfbench-shaped
// conjunctions (three registers, values from a nearby cycle) on the rows
// of real rv32i and fft runs, against the interp probe, and checks that the
// evaluations include firing ones.
func TestCompiledConditionOnCatalogRuns(t *testing.T) {
	for _, name := range []string{"rv32i", "fft"} {
		bm, ok := bench.Lookup(name)
		if !ok {
			t.Fatalf("no catalogue design %q", name)
		}
		inst := bm.New()
		eng, err := cuttlesim.New(inst.Design, cuttlesim.Options{Level: cuttlesim.LStatic})
		if err != nil {
			t.Fatal(err)
		}
		var tb sim.Testbench = sim.NopBench{}
		if inst.Bench != nil {
			tb = inst.Bench
		}
		r := rand.New(rand.NewSource(1))
		rows := make([][]uint64, 0, 400)
		for c := 0; c < 400; c++ {
			tb.BeforeCycle(eng)
			eng.Cycle()
			tb.AfterCycle(eng)
			row := make([]uint64, len(inst.Design.Registers))
			sim.ReadRow(eng, row)
			rows = append(rows, row)
		}
		fired := 0
		for k := 0; k < 20; k++ {
			g := &predGen{r: r, d: inst.Design, row: rows[r.Intn(len(rows))]}
			src := g.conjunction(3)
			fast, err := debug.CompileRowCondition(inst.Design, src)
			if err != nil {
				t.Fatalf("%s: CompileRowCondition(%q): %v", name, src, err)
			}
			slow, err := interpProbe(inst.Design, src)
			if err != nil {
				t.Fatalf("%s: interp probe(%q): %v", name, src, err)
			}
			for _, row := range rows {
				got := fast(row)
				if want := slow(row); got != want {
					t.Fatalf("%s: %q: compiled %v, interp probe %v", name, src, got, want)
				}
				if got {
					fired++
				}
			}
		}
		if fired == 0 {
			t.Errorf("%s: no evaluation fired; the test exercises only the false branch", name)
		}
	}
}

package tracedb

import (
	"math"
	"strconv"
	"testing"

	"cuttlego/internal/bench"
	"cuttlego/internal/cuttlesim"
	"cuttlego/internal/debug"
	"cuttlego/internal/faultinj"
)

func TestParseQuery(t *testing.T) {
	cases := []struct {
		in   string
		want Query
		bad  bool
	}{
		{in: "first x.rd0() == 8'd3", want: Query{Mode: "first", Expr: "x.rd0() == 8'd3", To: math.MaxUint64}},
		{in: "last done.rd0() == 1'd1 in 10..500", want: Query{Mode: "last", Expr: "done.rd0() == 1'd1", From: 10, To: 500}},
		{in: "count x.rd0() == 8'd1", want: Query{Mode: "count", Expr: "x.rd0() == 8'd1", To: math.MaxUint64}},
		{in: "scan input.rd0() <u 8'd4 in 0..99", want: Query{Mode: "scan", Expr: "input.rd0() <u 8'd4", From: 0, To: 99}},
		{in: "  first   x.rd0() == 8'd3  ", want: Query{Mode: "first", Expr: "x.rd0() == 8'd3", To: math.MaxUint64}},
		{in: "nope x.rd0()", bad: true},
		{in: "first", bad: true},
		{in: "first  ", bad: true},
		{in: "first x.rd0() == 8'd1 in 9..3", bad: true},
		{in: "", bad: true},
	}
	for _, tc := range cases {
		got, err := ParseQuery(tc.in)
		if tc.bad {
			if err == nil {
				t.Errorf("ParseQuery(%q) accepted, want error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseQuery(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseQuery(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// bruteForce evaluates the predicate over every recorded row by reading
// rows directly — the trusted oracle the indexed query engine's chunk
// pruning must match.
func bruteForce(t *testing.T, r *Reader, catalog, expr string, from, to uint64) []uint64 {
	t.Helper()
	bm, _ := bench.Lookup(catalog)
	d := bm.New().Design
	eval, err := debug.CompileRowCondition(d, expr)
	if err != nil {
		t.Fatalf("CompileRowCondition: %v", err)
	}
	first, last, ok := r.Bounds()
	if !ok {
		t.Fatalf("empty recording")
	}
	if from > first {
		first = from
	}
	if to < last {
		last = to
	}
	var matches []uint64
	for cyc := first; cyc <= last; cyc++ {
		row, err := r.Row(cyc)
		if err != nil {
			t.Fatalf("Row(%d): %v", cyc, err)
		}
		if eval(row) {
			matches = append(matches, cyc)
		}
	}
	return matches
}

func TestQueryModesMatchBruteForce(t *testing.T) {
	const cycles = 3000
	dir := recordCatalog(t, "collatz", cycles, 128)
	r, err := Open(dir, faultinj.OS())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	bm, _ := bench.Lookup("collatz")
	d := bm.New().Design
	exprs := []string{
		"x.rd0() == 32'd1",
		"x.rd0() <u 32'd10",
		"x.rd0() == 32'd27 & done.rd0() == 1'd0",
		"done.rd0() == 1'd1 | x.rd0() >=u 32'd1000",
	}
	windows := [][2]uint64{{0, math.MaxUint64}, {100, 2000}, {999, 999}, {2500, math.MaxUint64}}
	// Collatz register names: confirm against the design before querying.
	names := map[string]bool{}
	for _, reg := range d.Registers {
		names[reg.Name] = true
	}
	if !names["x"] {
		t.Skipf("collatz design registers changed: %v", d.Registers)
	}
	for _, expr := range exprs {
		for _, w := range windows {
			want := bruteForce(t, r, "collatz", expr, w[0], w[1])
			res, err := r.Query(d, Query{Mode: ModeCount, Expr: expr, From: w[0], To: w[1]})
			if err != nil {
				t.Fatalf("count %q in %v: %v", expr, w, err)
			}
			if res.Count != uint64(len(want)) {
				t.Errorf("count %q in %v = %d, want %d", expr, w, res.Count, len(want))
			}
			res, err = r.Query(d, Query{Mode: ModeFirst, Expr: expr, From: w[0], To: w[1]})
			if err != nil {
				t.Fatalf("first: %v", err)
			}
			if res.Matched != (len(want) > 0) || (res.Matched && res.Cycle != want[0]) {
				t.Errorf("first %q in %v = %v/%d, want %v", expr, w, res.Matched, res.Cycle, want)
			}
			res, err = r.Query(d, Query{Mode: ModeLast, Expr: expr, From: w[0], To: w[1]})
			if err != nil {
				t.Fatalf("last: %v", err)
			}
			if res.Matched != (len(want) > 0) || (res.Matched && res.Cycle != want[len(want)-1]) {
				t.Errorf("last %q in %v = %v/%d, want %v", expr, w, res.Matched, res.Cycle, want)
			}
			res, err = r.Query(d, Query{Mode: ModeScan, Expr: expr, From: w[0], To: w[1], Limit: len(want) + 10})
			if err != nil {
				t.Fatalf("scan: %v", err)
			}
			if len(res.Matches) != len(want) {
				t.Errorf("scan %q in %v returned %d matches, want %d", expr, w, len(res.Matches), len(want))
			} else {
				for i := range want {
					if res.Matches[i] != want[i] {
						t.Errorf("scan %q match %d = %d, want %d", expr, i, res.Matches[i], want[i])
						break
					}
				}
			}
		}
	}
}

func TestQueryScanLimit(t *testing.T) {
	dir := recordCatalog(t, "collatz", 2000, 64)
	r, err := Open(dir, faultinj.OS())
	if err != nil {
		t.Fatal(err)
	}
	bm, _ := bench.Lookup("collatz")
	d := bm.New().Design
	res, err := r.Query(d, Query{Mode: ModeScan, Expr: "x.rd0() <u 32'd100000", To: math.MaxUint64, Limit: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 7 {
		t.Fatalf("limit 7 returned %d matches", len(res.Matches))
	}
}

func TestQueryRejectsWrongDesign(t *testing.T) {
	dir := recordCatalog(t, "collatz", 100, 64)
	r, err := Open(dir, faultinj.OS())
	if err != nil {
		t.Fatal(err)
	}
	_ = r
	bm, _ := bench.Lookup("fir")
	d := bm.New().Design
	if _, err := r.Query(d, Query{Mode: ModeFirst, Expr: "1'd1", To: math.MaxUint64}); err == nil {
		t.Fatalf("query with mismatched design accepted")
	}
}

func TestQueryRejectsEffectfulExpr(t *testing.T) {
	dir := recordCatalog(t, "collatz", 100, 64)
	r, err := Open(dir, faultinj.OS())
	if err != nil {
		t.Fatal(err)
	}
	bm, _ := bench.Lookup("collatz")
	d := bm.New().Design
	if _, err := r.Query(d, Query{Mode: ModeFirst, Expr: "x.wr0(32'd0)", To: math.MaxUint64}); err == nil {
		t.Fatalf("effectful query expression accepted")
	}
}

// TestFirstQueryRV32IFromIndex is the acceptance test: a `first` query over
// a 100k-cycle rv32i recording must answer from the index — equal to a
// linear re-simulation scan — while only decoding a sliver of the chunks.
func TestFirstQueryRV32IFromIndex(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-cycle rv32i recording")
	}
	const cycles = 100_000
	const chunk = 1024
	bm, ok := bench.Lookup("rv32i")
	if !ok {
		t.Fatalf("no rv32i in the catalogue")
	}
	inst := bm.New()
	eng, err := cuttlesim.New(inst.Design, cuttlesim.Options{
		Level: cuttlesim.LStatic, Backend: cuttlesim.Closure, Profile: true,
	})
	if err != nil {
		t.Fatalf("cuttlesim.New: %v", err)
	}
	dir := t.TempDir() + "/trace"
	rec, err := Create(dir, faultinj.OS(), MetaFor(inst.Design, chunk))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	recordRun(t, rec, eng, inst.Bench, cycles)
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// instret counts retired instructions, monotonically: the chunk min/max
	// summaries alone identify the single chunk that can contain the match.
	const expr = "instret.rd0() == 32'd20000"
	r, err := Open(dir, faultinj.OS())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	res, err := r.Query(inst.Design, Query{Mode: ModeFirst, Expr: expr, To: math.MaxUint64})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !res.Matched {
		t.Fatalf("query found no match; recording last instret = %v", finalInstret(t, r))
	}
	total := len(r.Chunks())
	if res.ChunksScanned > 3 {
		t.Fatalf("query decoded %d of %d chunks — the index is not pruning", res.ChunksScanned, total)
	}
	if res.RowsEvaluated > 2*chunk {
		t.Fatalf("query evaluated %d rows for a point lookup", res.RowsEvaluated)
	}
	// A full-window count over the same monotonic signal must dispose of
	// nearly every chunk from the summaries alone.
	cres, err := r.Query(inst.Design, Query{Mode: ModeCount, Expr: expr, To: math.MaxUint64})
	if err != nil {
		t.Fatalf("count query: %v", err)
	}
	if cres.ChunksSkipped < total-3 {
		t.Fatalf("count query skipped only %d of %d chunks via the index", cres.ChunksSkipped, total)
	}
	if cres.ChunksScanned > 3 {
		t.Fatalf("count query decoded %d of %d chunks", cres.ChunksScanned, total)
	}

	// Linear re-simulation scan: fresh engine, step cycle by cycle, stop at
	// the first cycle where the same compiled condition holds.
	fresh := bm.New()
	eng2, err := cuttlesim.New(fresh.Design, cuttlesim.Options{
		Level: cuttlesim.LStatic, Backend: cuttlesim.Closure, Profile: true,
	})
	if err != nil {
		t.Fatalf("cuttlesim.New: %v", err)
	}
	cond, err := debug.CompileCondition(fresh.Design, expr)
	if err != nil {
		t.Fatalf("CompileCondition: %v", err)
	}
	tb := fresh.Bench
	want := uint64(math.MaxUint64)
	for cyc := uint64(0); cyc <= cycles; cyc++ {
		if cond(eng2) {
			want = cyc
			break
		}
		tb.BeforeCycle(eng2)
		eng2.Cycle()
		tb.AfterCycle(eng2)
	}
	if want == math.MaxUint64 {
		t.Fatalf("linear scan found no match in %d cycles", cycles)
	}
	if res.Cycle != want {
		t.Fatalf("indexed query = cycle %d, linear re-simulation = cycle %d", res.Cycle, want)
	}
}

func finalInstret(t *testing.T, r *Reader) uint64 {
	t.Helper()
	_, last, ok := r.Bounds()
	if !ok {
		return 0
	}
	row, err := r.Row(last)
	if err != nil {
		return 0
	}
	for i, s := range r.meta.Signals {
		if s.Name == "instret" {
			return row[i]
		}
	}
	return 0
}

func TestQueryConstChunkFastPath(t *testing.T) {
	// idle spends almost every cycle quiescent, so most chunks have a fully
	// unchanged read set for a register that moves rarely; the fast path
	// must answer those chunks without decoding them.
	dir := recordCatalog(t, "idle", 5000, 256)
	r, err := Open(dir, faultinj.OS())
	if err != nil {
		t.Fatal(err)
	}
	bm, _ := bench.Lookup("idle")
	d := bm.New().Design
	reg := d.Registers[0].Name
	w := d.Registers[0].Type.BitWidth()
	if w == 0 {
		t.Skipf("first idle register is zero-width")
	}
	expr := reg + ".rd0() == " + strconv.Itoa(w) + "'d0"
	res, err := r.Query(d, Query{Mode: ModeCount, Expr: expr, To: math.MaxUint64})
	if err != nil {
		t.Fatalf("Query(%q): %v", expr, err)
	}
	want := bruteForce(t, r, "idle", expr, 0, math.MaxUint64)
	if res.Count != uint64(len(want)) {
		t.Fatalf("count = %d, want %d", res.Count, len(want))
	}
}

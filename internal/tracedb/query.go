package tracedb

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"cuttlego/internal/ast"
	"cuttlego/internal/debug"
	"cuttlego/internal/lang"
)

// Query modes.
const (
	ModeFirst = "first" // earliest matching cycle in the window
	ModeLast  = "last"  // latest matching cycle in the window
	ModeCount = "count" // number of matching cycles
	ModeScan  = "scan"  // every matching cycle, up to Limit
)

// DefaultScanLimit bounds scan results when the query doesn't.
const DefaultScanLimit = 1000

// Query is one time-travel question over a recording. Expr is a 1-bit
// effect-free predicate in the textual dialect (the same language
// conditional breakpoints use); the window [From, To] is inclusive and
// defaults to the whole recording.
type Query struct {
	Mode  string
	Expr  string
	From  uint64
	To    uint64 // inclusive; math.MaxUint64 (or 0 with From 0 via ParseQuery default) = end
	Limit int    // scan mode: max matches returned; 0 = DefaultScanLimit
}

// Result is a query's answer plus the work accounting that proves it came
// from the index: ChunksSkipped counts chunks disposed of by summaries
// alone, RowsEvaluated counts predicate evaluations actually performed.
type Result struct {
	Matched bool     // first/last: a matching cycle exists
	Cycle   uint64   // first/last: the matching cycle
	Count   uint64   // count: matching cycles in the window
	Matches []uint64 // scan: matching cycles, ascending, truncated at Limit

	ChunksScanned int    // chunk files decoded and row-scanned
	ChunksSkipped int    // chunks resolved from index summaries alone
	RowsEvaluated uint64 // predicate evaluations performed
}

// ParseQuery parses the one-line query syntax used by kdbg and DAP
// evaluate:
//
//	first|last|count|scan <expr> [in <from>..<to>]
//
// e.g. `first cache.state.rd0() == state::M in 0..50000`.
func ParseQuery(s string) (Query, error) {
	s = strings.TrimSpace(s)
	mode, rest, _ := strings.Cut(s, " ")
	switch mode {
	case ModeFirst, ModeLast, ModeCount, ModeScan:
	default:
		return Query{}, fmt.Errorf("tracedb: query must start with first, last, count, or scan (got %q)", mode)
	}
	q := Query{Mode: mode, To: math.MaxUint64}
	expr := strings.TrimSpace(rest)
	// A trailing " in A..B" clause is a cycle window. Scan from the right so
	// the expression itself may contain the word "in" inside identifiers.
	if i := strings.LastIndex(expr, " in "); i >= 0 {
		if from, to, ok := parseWindow(expr[i+4:]); ok {
			q.From, q.To = from, to
			expr = strings.TrimSpace(expr[:i])
		}
	}
	if expr == "" {
		return Query{}, fmt.Errorf("tracedb: query %q has no expression", s)
	}
	if q.To < q.From {
		return Query{}, fmt.Errorf("tracedb: query window %d..%d is empty", q.From, q.To)
	}
	q.Expr = expr
	return q, nil
}

func parseWindow(s string) (from, to uint64, ok bool) {
	a, b, found := strings.Cut(strings.TrimSpace(s), "..")
	if !found {
		return 0, 0, false
	}
	from, err1 := strconv.ParseUint(strings.TrimSpace(a), 10, 64)
	to, err2 := strconv.ParseUint(strings.TrimSpace(b), 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return from, to, true
}

func (q Query) String() string {
	w := ""
	if q.From != 0 || q.To != math.MaxUint64 {
		w = fmt.Sprintf(" in %d..%d", q.From, q.To)
	}
	return q.Mode + " " + q.Expr + w
}

// constraint is one index-prunable conjunct of the predicate: a comparison
// between a signal read and a constant. A chunk whose [min, max] summary
// cannot satisfy every constraint cannot contain a match.
type constraint struct {
	sig int
	op  ast.Op
	c   uint64
	rev bool // constant on the left: c OP signal
}

func (ct constraint) admits(s SigSum) bool {
	if !ct.rev {
		switch ct.op {
		case ast.OpEq:
			return s.Min <= ct.c && ct.c <= s.Max
		case ast.OpNeq:
			return s.Changed || s.Min != ct.c
		case ast.OpLtu:
			return s.Min < ct.c
		case ast.OpGeu:
			return s.Max >= ct.c
		}
		return true
	}
	switch ct.op {
	case ast.OpEq:
		return s.Min <= ct.c && ct.c <= s.Max
	case ast.OpNeq:
		return s.Changed || s.Min != ct.c
	case ast.OpLtu: // c < signal
		return ct.c < s.Max
	case ast.OpGeu: // c >= signal
		return ct.c >= s.Min
	}
	return true
}

// compiled is a predicate prepared for one recording: the row evaluator,
// the signals it reads, and its index-prunable constraints. Signals are the
// design's registers in declaration order, so a stored row is exactly the
// row the evaluator expects.
type compiled struct {
	eval        func(row []uint64) bool
	reads       []int // signal indices the expression reads
	constraints []constraint
}

func (r *Reader) compile(d *ast.Design, expr string) (*compiled, error) {
	if err := r.meta.CheckDesign(d); err != nil {
		return nil, err
	}
	node, err := lang.ParseExpr(d, expr)
	if err != nil {
		return nil, err
	}
	eval, err := debug.CompileRowCondition(d, expr)
	if err != nil {
		return nil, err
	}
	idx := make(map[string]int, len(r.meta.Signals))
	for i, s := range r.meta.Signals {
		idx[s.Name] = i
	}
	c := &compiled{eval: eval, reads: debug.ReadSet(d, node)}
	// Decompose top-level conjunctions and keep every `signal OP constant`
	// conjunct as an index constraint. The predicate is still evaluated in
	// full on surviving rows; constraints only rule chunks out, so missing
	// one (an OR, a signed compare, an arithmetic subterm) costs scan time,
	// never correctness.
	var conj func(n *ast.Node)
	conj = func(n *ast.Node) {
		if n == nil {
			return
		}
		if n.Kind == ast.KBinop && n.Op == ast.OpAnd {
			conj(n.A)
			conj(n.B)
			return
		}
		if n.Kind != ast.KBinop {
			return
		}
		switch n.Op {
		case ast.OpEq, ast.OpNeq, ast.OpLtu, ast.OpGeu:
		default:
			return
		}
		if n.A.Kind == ast.KRead && n.B.Kind == ast.KConst {
			if i, ok := idx[n.A.Name]; ok {
				c.constraints = append(c.constraints, constraint{sig: i, op: n.Op, c: n.B.Val.Val})
			}
		} else if n.A.Kind == ast.KConst && n.B.Kind == ast.KRead {
			if i, ok := idx[n.B.Name]; ok {
				c.constraints = append(c.constraints, constraint{sig: i, op: n.Op, c: n.A.Val.Val, rev: true})
			}
		}
	}
	conj(node)
	return c, nil
}

// Query answers q against the recording. d must be the design the
// recording was made from (schema-checked). Chunks are ruled out by the
// index — constraint summaries first, then the all-read-signals-unchanged
// fast path which evaluates the predicate once per chunk instead of once
// per row — and only surviving chunks are decoded and row-scanned.
func (r *Reader) Query(d *ast.Design, q Query) (Result, error) {
	var res Result
	switch q.Mode {
	case ModeFirst, ModeLast, ModeCount, ModeScan:
	default:
		return res, fmt.Errorf("tracedb: unknown query mode %q", q.Mode)
	}
	if q.To < q.From {
		return res, fmt.Errorf("tracedb: query window %d..%d is empty", q.From, q.To)
	}
	limit := q.Limit
	if limit <= 0 {
		limit = DefaultScanLimit
	}
	pred, err := r.compile(d, q.Expr)
	if err != nil {
		return res, err
	}
	row := make([]uint64, len(r.meta.Signals))

	// evalConst answers the predicate for a chunk whose read set is
	// unchanged: build the one distinct row from the summaries and evaluate
	// it once.
	evalConst := func(c ChunkInfo) bool {
		for i := range row {
			row[i] = c.Sums[i].Min
		}
		res.RowsEvaluated++
		return pred.eval(row)
	}

	backward := q.Mode == ModeLast
	for ci := range r.chunks {
		i := ci
		if backward {
			i = len(r.chunks) - 1 - ci
		}
		c := r.chunks[i]
		last := c.Start + c.Count - 1
		if last < q.From || c.Start > q.To {
			continue
		}
		lo, hi := c.Start, last
		if q.From > lo {
			lo = q.From
		}
		if q.To < hi {
			hi = q.To
		}
		pruned := false
		for _, ct := range pred.constraints {
			if !ct.admits(c.Sums[ct.sig]) {
				pruned = true
				break
			}
		}
		if pruned {
			res.ChunksSkipped++
			continue
		}
		allConst := true
		for _, s := range pred.reads {
			if c.Sums[s].Changed {
				allConst = false
				break
			}
		}
		if allConst {
			res.ChunksSkipped++
			if !evalConst(c) {
				continue
			}
			// Every row in [lo, hi] matches.
			switch q.Mode {
			case ModeFirst:
				res.Matched, res.Cycle = true, lo
				return res, nil
			case ModeLast:
				res.Matched, res.Cycle = true, hi
				return res, nil
			case ModeCount:
				res.Count += hi - lo + 1
			case ModeScan:
				for cyc := lo; cyc <= hi && len(res.Matches) < limit; cyc++ {
					res.Matches = append(res.Matches, cyc)
				}
				if len(res.Matches) >= limit {
					return res, nil
				}
			}
			continue
		}
		cols, err := r.loadChunk(i)
		if err != nil {
			return res, err
		}
		res.ChunksScanned++
		evalRow := func(cyc uint64) bool {
			off := cyc - c.Start
			for s := range cols {
				row[s] = cols[s][off]
			}
			res.RowsEvaluated++
			return pred.eval(row)
		}
		if backward {
			for cyc := hi; ; cyc-- {
				if evalRow(cyc) {
					res.Matched, res.Cycle = true, cyc
					return res, nil
				}
				if cyc == lo {
					break
				}
			}
			continue
		}
		for cyc := lo; cyc <= hi; cyc++ {
			if !evalRow(cyc) {
				continue
			}
			switch q.Mode {
			case ModeFirst:
				res.Matched, res.Cycle = true, cyc
				return res, nil
			case ModeCount:
				res.Count++
			case ModeScan:
				res.Matches = append(res.Matches, cyc)
				if len(res.Matches) >= limit {
					return res, nil
				}
			}
		}
	}
	return res, nil
}

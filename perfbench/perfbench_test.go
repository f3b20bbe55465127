package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"cuttlego/internal/bench"
	"cuttlego/internal/debug"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    int
		okay bool
	}{
		{19, 0, false}, // even the median would have only 9 beyond it
		{20, 50, true},
		{99, 89, true},
		{100, 90, true}, // p90 needs 100 samples: ranks 91..100 lie beyond
		{1000, 99, true},
	} {
		p, ok := tailPercentile(tc.n)
		if ok != tc.okay || (ok && p != tc.p) {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", tc.n, p, ok, tc.p, tc.okay)
		}
	}
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9 (nearest rank)", got)
	}
	if got := median(xs); got != 5 {
		t.Errorf("median of 1..10 = %v, want 5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	base := time.Unix(0, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{id: 1, name: "client", start: at(0), end: at(100)},
		// Overlapping children count once; the part past the parent's end
		// is not the parent's.
		{id: 2, parent: 1, name: "router", start: at(10), end: at(30)},
		{id: 3, parent: 1, name: "router", start: at(20), end: at(50)},
		{id: 4, parent: 1, name: "router", start: at(90), end: at(120)},
		{id: 5, parent: 3, name: "server", start: at(25), end: at(45)},
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{
		1: 50 * time.Millisecond, // 100 - [10,50] - [90,100]
		2: 20 * time.Millisecond,
		3: 10 * time.Millisecond, // 30 - 20
		4: 30 * time.Millisecond,
		5: 20 * time.Millisecond,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestScriptIsPureFunctionOfSeed(t *testing.T) {
	script := func(args ...string) []op {
		cfg, err := parseArgs(append([]string{"--workload", "sim", "--seconds", "5", "--trace", "0"}, args...))
		if err != nil {
			t.Fatal(err)
		}
		sc := newScript(cfg.seed, scriptBounds{start: 2048, floor: 1024, cap: 12288, nregs: 64})
		ops := make([]op, 5000)
		for i := range ops {
			ops[i] = sc.next()
		}
		return ops
	}
	a, b, c := script("--seed", "7"), script("--seed", "7"), script("--seed", "8")
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different scripts")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same script")
	}
	var kinds [numOpKinds]int
	for i, o := range a {
		kinds[o.kind]++
		if o.at < 1024 || o.at > 12288 {
			t.Fatalf("op %d at cycle %d, outside [1024, 12288]", i, o.at)
		}
		if i > 0 {
			p := a[i-1]
			next := p.at
			switch p.kind {
			case opStep:
				next++
			case opReverse:
				next--
			}
			if o.at != next {
				t.Fatalf("op %d starts at cycle %d, but op %d leaves the session at %d", i, o.at, i-1, next)
			}
		}
		if o.kind == opQuery && (o.to > o.at || o.from > o.val || o.val > o.to) {
			t.Fatalf("query %d window %d..%d (value at %d) does not lie in the recording 0..%d", i, o.from, o.to, o.val, o.at)
		}
	}
	for k, n := range kinds {
		if n == 0 {
			t.Errorf("script has no %s ops", opNames[k])
		}
	}
}

func TestHaltGuard(t *testing.T) {
	sh, err := runShadow("rv32i", 0, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	bm, _ := bench.Lookup("rv32i")
	if want, halted := bench.HaltCycles(bm, haltBudget); !halted || sh.halt != want {
		t.Fatalf("halt found at cycle %d, bench.HaltCycles says %d (halted %v)", sh.halt, want, halted)
	}
	if err := checkBudget("rv32i", sh.halt-1, sh.halt); err != nil {
		t.Errorf("budget ending one cycle before the halt refused: %v", err)
	}
	for _, end := range []uint64{sh.halt, sh.halt + 1} {
		if err := checkBudget("rv32i", end, sh.halt); err == nil {
			t.Errorf("budget ending at cycle %d accepted with the halt at %d", end, sh.halt)
		}
	}
	for _, budgets := range []map[string][3]uint64{simBudgets, debugBudgets} {
		for m, bu := range budgets {
			if bu[2] < 1 || bu[2] > maxReps {
				t.Errorf("%s: %d samples per round, want 1..%d", m, bu[2], maxReps)
			}
		}
	}
	for _, budgets := range []map[string][3]uint64{simBudgets, debugBudgets} {
		for _, m := range []string{"cps_rv32i_cuttlesim", "cps_rv32i_native"} {
			bu := budgets[m]
			if end := bu[0] + bu[1]; checkBudget("rv32i", end, sh.halt) != nil {
				t.Errorf("%s budget ends at cycle %d, past the halt at %d", m, end, sh.halt)
			}
		}
	}
}

func TestBreakCondition(t *testing.T) {
	sh, err := runShadow("fft", 3000, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	cond, err := sh.breakCondition(2500)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := debug.CompileCondition(sh.design, cond)
	if err != nil {
		t.Fatal(err)
	}
	for c := uint64(1); c <= 2500; c++ {
		if eval(sh.rowEngine(c)) != (c == 2500) {
			t.Fatalf("%q holds at cycle %d: want it first at 2500", cond, c)
		}
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var e2e, layers, wls []string
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range doc.PerLayer {
		layers = append(layers, m.Name)
	}
	for _, w := range doc.Workloads {
		wls = append(wls, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown", w.Name)
		}
	}
	if len(wls) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(wls), len(workloads))
	}
	if !reflect.DeepEqual(e2e, endToEndNames) {
		t.Errorf("end_to_end names %v\nwant %v", e2e, endToEndNames)
	}
	if !reflect.DeepEqual(layers, perLayerNames) {
		t.Errorf("per_layer names %v\nwant %v", layers, perLayerNames)
	}
}

func TestSpansCrossHTTP(t *testing.T) {
	tr := &tracer{}
	tr.on.Store(true)
	srv := httptest.NewServer(tr.middleware("server", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})))
	defer srv.Close()
	hc := &http.Client{Transport: clientTransport{next: http.DefaultTransport}}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, start := tr.begin()
			req, err := http.NewRequestWithContext(withSpan(context.Background(), id), "GET", srv.URL, nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := hc.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			tr.end(id, 0, "client", start)
		}()
	}
	wg.Wait()
	clients := make(map[uint64]bool)
	spans := tr.take()
	for _, s := range spans {
		if s.name == "client" {
			clients[s.id] = true
		}
	}
	servers := 0
	for _, s := range spans {
		if s.name == "server" {
			servers++
			if !clients[s.parent] {
				t.Errorf("server span %d has parent %d, not a client span", s.id, s.parent)
			}
		}
	}
	if len(clients) != 8 || servers != 8 {
		t.Errorf("%d client and %d server spans, want 8 of each", len(clients), servers)
	}
}

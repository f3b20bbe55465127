package main

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed call across a layer boundary. Spans of one request
// form a tree through parent ids: the client call, the router hop it
// caused, and the daemon handler the router forwarded to.
type span struct {
	id, parent uint64
	name       string
	start, end time.Time
}

// tracer keeps spans in memory while enabled; the benchmark reads them
// back after each traced phase. It is safe for concurrent use: the router
// and daemon handlers record from their own goroutines.
type tracer struct {
	on    atomic.Bool
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

// spanHeader carries the caller's span id across an HTTP hop.
const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

// begin opens a span under parent and returns its id; 0 when tracing is
// off, so callers need no separate check.
func (t *tracer) begin() (uint64, time.Time) {
	if t == nil || !t.on.Load() {
		return 0, time.Time{}
	}
	return t.next.Add(1), time.Now()
}

func (t *tracer) end(id, parent uint64, name string, start time.Time) {
	if id == 0 {
		return
	}
	sp := span{id: id, parent: parent, name: name, start: start, end: time.Now()}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// take returns the recorded spans and clears the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// withSpan marks ctx so the client transport forwards id as the parent of
// the spans the request causes.
func withSpan(ctx context.Context, id uint64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, id)
}

// clientTransport stamps the calling span's id on outgoing requests.
type clientTransport struct{ next http.RoundTripper }

func (c clientTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(spanKey{}).(uint64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	return c.next.RoundTrip(r)
}

// middleware records a span named name around h while tracing is on,
// parented by the span id the request carries (0 when it carries none),
// and hands its own id to whatever h forwards to.
func (t *tracer) middleware(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		id, start := t.begin()
		if id != 0 {
			r.Header.Set(spanHeader, strconv.FormatUint(id, 10))
		}
		h.ServeHTTP(w, r)
		t.end(id, parent, name, start)
	})
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children counted once, portions
// outside the parent ignored).
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.id]
		sort.Slice(cs, func(i, j int) bool { return cs[i].start.Before(cs[j].start) })
		var covered time.Duration
		var curS, curE time.Time
		flush := func() {
			if curE.After(curS) {
				covered += curE.Sub(curS)
			}
		}
		for i, c := range cs {
			cS, cE := c.start, c.end
			if cS.Before(s.start) {
				cS = s.start
			}
			if cE.After(s.end) {
				cE = s.end
			}
			if !cE.After(cS) {
				continue
			}
			if i == 0 || cS.After(curE) {
				flush()
				curS, curE = cS, cE
			} else if cE.After(curE) {
				curE = cE
			}
		}
		flush()
		out[s.id] = s.end.Sub(s.start) - covered
	}
	return out
}

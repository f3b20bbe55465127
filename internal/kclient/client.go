// Package kclient is the thin HTTP client for a running ksimd daemon. It
// speaks the JSON wire vocabulary of internal/server and nothing else, so
// tools (kdbg -connect, kbench -serve-url) can drive remote sessions
// without linking any simulation engine.
package kclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cuttlego/internal/server"
)

// Client talks to one ksimd daemon.
type Client struct {
	base       string
	hc         *http.Client
	retry      RetryPolicy
	reqTimeout time.Duration
	streamIdle time.Duration
	jitter     jitterSource
}

// New builds a client for a daemon at base (e.g. "http://127.0.0.1:9090").
// A missing scheme defaults to http. The default client never retries; use
// NewWithOptions for a retry policy and fault-injection hooks.
func New(base string) *Client {
	return NewWithOptions(base, Options{})
}

// NewWithOptions builds a client with an explicit transport, retry policy,
// and timeouts.
func NewWithOptions(base string, opts Options) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	c := &Client{
		base:       strings.TrimRight(base, "/"),
		hc:         &http.Client{Transport: opts.Transport},
		retry:      opts.Retry.withDefaults(),
		reqTimeout: opts.RequestTimeout,
		streamIdle: opts.StreamIdleTimeout,
	}
	if opts.Retry.Seed != 0 {
		c.jitter.rng = mrand.New(mrand.NewSource(opts.Retry.Seed))
	}
	return c
}

// APIError is a non-2xx daemon response.
type APIError struct {
	Status  int
	Message string
	// RetryAfter is the server's Retry-After hint, when it sent one.
	// HasRetryAfter distinguishes an explicit "Retry-After: 0" — retry
	// immediately — from no hint at all (where RetryAfter is also zero but
	// the client falls back to its own backoff schedule).
	RetryAfter    time.Duration
	HasRetryAfter bool
}

func (e *APIError) Error() string {
	return fmt.Sprintf("ksimd: %s (HTTP %d)", e.Message, e.Status)
}

// do runs one JSON round trip with retries per the client's policy. A nil
// in sends no body; a nil out discards the response body.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return c.doReq(ctx, method, path, in, out, "")
}

// doKeyed is do with a fresh idempotency key: the daemon executes the
// request at most once no matter how many retries reach it, so mutating
// requests (create, step) survive lost responses without double-executing.
// A client whose policy never retries sends no key: nothing could replay
// it, and the daemon would hold its cached response for nothing.
func (c *Client) doKeyed(ctx context.Context, method, path string, in, out any) error {
	if c.retry.MaxAttempts <= 1 {
		return c.do(ctx, method, path, in, out)
	}
	return c.doReq(ctx, method, path, in, out, newIdemKey())
}

func (c *Client) doReq(ctx context.Context, method, path string, in, out any, idemKey string) error {
	var data []byte
	if in != nil {
		var err error
		if data, err = json.Marshal(in); err != nil {
			return err
		}
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		err := c.attempt(ctx, method, path, data, in != nil, out, idemKey)
		if err == nil {
			return nil
		}
		lastErr = err
		if attempt >= c.retry.MaxAttempts || !retryable(err, method, idemKey != "") {
			return lastErr
		}
		var hint time.Duration
		var hasHint bool
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			hint, hasHint = apiErr.RetryAfter, apiErr.HasRetryAfter
		}
		delay := c.backoff(attempt, hint, hasHint)
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return lastErr
			}
		}
	}
}

// attempt is one HTTP round trip. The body reader is rebuilt per attempt —
// a half-consumed reader from a torn previous try must not leak into the
// next one.
func (c *Client) attempt(ctx context.Context, method, path string, data []byte, hasBody bool, out any, idemKey string) error {
	if c.reqTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.reqTimeout)
		defer cancel()
	}
	var body io.Reader
	if hasBody {
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return decodeError(resp)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func decodeError(resp *http.Response) error {
	apiErr := &APIError{Status: resp.StatusCode}
	// Retry-After is either delta-seconds or an HTTP-date (RFC 9110 §10.2.3).
	// "0" is a real hint — retry immediately — not an absent header, and a
	// date already in the past means the same thing.
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
			apiErr.HasRetryAfter = true
		} else if at, err := http.ParseTime(ra); err == nil {
			if d := time.Until(at); d > 0 {
				apiErr.RetryAfter = d
			}
			apiErr.HasRetryAfter = true
		}
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var er server.ErrorResponse
	if json.Unmarshal(data, &er) == nil && er.Error != "" {
		apiErr.Message = er.Error
	} else {
		apiErr.Message = strings.TrimSpace(string(data))
	}
	return apiErr
}

// Health checks /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Metrics fetches the daemon counters.
func (c *Client) Metrics(ctx context.Context) (server.Metrics, error) {
	var m server.Metrics
	err := c.do(ctx, http.MethodGet, "/metrics", nil, &m)
	return m, err
}

// Create opens a new session. The request carries an idempotency key, so a
// retried create never leaks a second session.
func (c *Client) Create(ctx context.Context, req server.CreateRequest) (server.SessionInfo, error) {
	var info server.SessionInfo
	err := c.doKeyed(ctx, http.MethodPost, "/v1/sessions", req, &info)
	return info, err
}

// List enumerates live sessions.
func (c *Client) List(ctx context.Context) ([]server.SessionInfo, error) {
	var resp server.ListResponse
	err := c.do(ctx, http.MethodGet, "/v1/sessions", nil, &resp)
	return resp.Sessions, err
}

// Info describes one session.
func (c *Client) Info(ctx context.Context, id string) (server.SessionInfo, error) {
	var info server.SessionInfo
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id), nil, &info)
	return info, err
}

// Delete retires a session, removing any durable state.
func (c *Client) Delete(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/sessions/"+url.PathEscape(id), nil, nil)
}

// Step advances a session by up to cycles cycles. The request carries an
// idempotency key, so a retry after a lost response never steps twice.
func (c *Client) Step(ctx context.Context, id string, cycles uint64) (server.StepResponse, error) {
	var resp server.StepResponse
	err := c.doKeyed(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/step",
		server.StepRequest{Cycles: cycles}, &resp)
	return resp, err
}

// Regs runs a batched register poke/peek.
func (c *Client) Regs(ctx context.Context, id string, req server.RegsRequest) (server.RegsResponse, error) {
	var resp server.RegsResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/regs", req, &resp)
	return resp, err
}

// Profile fetches per-rule counters.
func (c *Client) Profile(ctx context.Context, id string) (server.ProfileResponse, error) {
	var resp server.ProfileResponse
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id)+"/profile", nil, &resp)
	return resp, err
}

// Break installs a conditional breakpoint, or clears them all.
func (c *Client) Break(ctx context.Context, id string, req server.BreakRequest) error {
	return c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/break", req, nil)
}

// Checkpoint persists the session's current state.
func (c *Client) Checkpoint(ctx context.Context, id string) (server.CheckpointResponse, error) {
	var resp server.CheckpointResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/checkpoint", nil, &resp)
	return resp, err
}

// Restore rewinds a live session to one of its checkpoints.
func (c *Client) Restore(ctx context.Context, id, checkpoint string) (server.SessionInfo, error) {
	var info server.SessionInfo
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/restore",
		server.RestoreRequest{Checkpoint: checkpoint}, &info)
	return info, err
}

// Resurrect recreates a stored session after a daemon restart ("" picks
// the latest checkpoint).
func (c *Client) Resurrect(ctx context.Context, session, checkpoint string) (server.SessionInfo, error) {
	var info server.SessionInfo
	err := c.do(ctx, http.MethodPost, "/v1/resurrect",
		server.ResurrectRequest{Session: session, Checkpoint: checkpoint}, &info)
	return info, err
}

// Fork clones a session's current state into a new session.
func (c *Client) Fork(ctx context.Context, id string) (server.SessionInfo, error) {
	var info server.SessionInfo
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/fork", nil, &info)
	return info, err
}

// Export captures a session's complete portable state; release additionally
// retires the live session (the migration handoff).
func (c *Client) Export(ctx context.Context, id string, release bool) (server.ExportResponse, error) {
	var resp server.ExportResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/export",
		server.ExportRequest{Release: release}, &resp)
	return resp, err
}

// Import resurrects an exported session on this daemon, behind its
// digest+cycle parity gate.
func (c *Client) Import(ctx context.Context, req server.ImportRequest) (server.SessionInfo, error) {
	var info server.SessionInfo
	err := c.do(ctx, http.MethodPost, "/v1/import", req, &info)
	return info, err
}

// Migrate asks a routing gateway to move a session to another backend
// (target may be empty: the router picks the next healthy one).
func (c *Client) Migrate(ctx context.Context, id, target string) (server.MigrateResponse, error) {
	var resp server.MigrateResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/migrate",
		server.MigrateRequest{Target: target}, &resp)
	return resp, err
}

// Reverse steps a session backwards.
func (c *Client) Reverse(ctx context.Context, id string, cycles uint64) (server.SessionInfo, error) {
	var info server.SessionInfo
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/reverse",
		server.ReverseRequest{Cycles: cycles}, &info)
	return info, err
}

// Trace opens the streamed trace of the next cycles cycles; format is
// "events" (NDJSON) or "vcd". The caller owns the returned body.
func (c *Client) Trace(ctx context.Context, id string, cycles uint64, format string) (io.ReadCloser, error) {
	u := c.base + "/v1/sessions/" + url.PathEscape(id) + "/trace?cycles=" +
		strconv.FormatUint(cycles, 10) + "&format=" + url.QueryEscape(format)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	return resp.Body, nil
}

// TraceRecord switches a session's trace recording on or off and returns
// the recording's status.
func (c *Client) TraceRecord(ctx context.Context, id string, enable bool) (server.TraceStatus, error) {
	var st server.TraceStatus
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/trace/record",
		server.TraceRecordRequest{Enable: enable}, &st)
	return st, err
}

// TraceStatus describes a session's trace recording.
func (c *Client) TraceStatus(ctx context.Context, id string) (server.TraceStatus, error) {
	var st server.TraceStatus
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id)+"/trace/status", nil, &st)
	return st, err
}

// TraceQuery runs one indexed query over a session's recording.
func (c *Client) TraceQuery(ctx context.Context, id string, req server.TraceQueryRequest) (server.TraceQueryResponse, error) {
	var resp server.TraceQueryResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/trace/query", req, &resp)
	return resp, err
}

// TraceDiff compares a session's recording against another session's.
func (c *Client) TraceDiff(ctx context.Context, id string, req server.TraceDiffRequest) (server.TraceDiffResponse, error) {
	var resp server.TraceDiffResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/trace/diff", req, &resp)
	return resp, err
}

// TraceVCD opens the VCD re-emitted from a session's recording for the
// cycle window [from, to]. The caller owns the returned body.
func (c *Client) TraceVCD(ctx context.Context, id string, from, to uint64) (io.ReadCloser, error) {
	u := c.base + "/v1/sessions/" + url.PathEscape(id) + "/trace/vcd?from=" +
		strconv.FormatUint(from, 10) + "&to=" + strconv.FormatUint(to, 10)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	return resp.Body, nil
}

// ErrStreamCanceled reports a trace stream torn down because the caller's
// context ended mid-stream.
var ErrStreamCanceled = errors.New("kclient: trace stream canceled")

// ErrStreamStalled reports a trace stream torn down by the idle watchdog:
// no event arrived within Options.StreamIdleTimeout.
var ErrStreamStalled = errors.New("kclient: trace stream stalled")

// TraceEvents runs an NDJSON trace to completion, invoking fn per event.
// The stream honors ctx — cancellation aborts a blocked read and reports
// ErrStreamCanceled — and, when the client has a StreamIdleTimeout, a
// stream that stops producing events is torn down with ErrStreamStalled
// instead of blocking forever on a wedged daemon.
func (c *Client) TraceEvents(ctx context.Context, id string, cycles uint64, fn func(server.TraceEvent) error) error {
	body, err := c.Trace(ctx, id, cycles, "events")
	if err != nil {
		return err
	}
	defer body.Close()
	// Closing the body is what unblocks a reader stuck in Scan: the request
	// context aborts transport reads too, but an explicit AfterFunc also
	// covers recorded/hijacked bodies that ignore the request context.
	stop := context.AfterFunc(ctx, func() { body.Close() })
	defer stop()
	var stalled atomic.Bool
	var idle *time.Timer
	if c.streamIdle > 0 {
		idle = time.AfterFunc(c.streamIdle, func() {
			stalled.Store(true)
			body.Close()
		})
		defer idle.Stop()
	}
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if idle != nil {
			idle.Reset(c.streamIdle)
		}
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev server.TraceEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return c.streamErr(ctx, &stalled, fmt.Errorf("trace stream: %w", err))
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
	return c.streamErr(ctx, &stalled, sc.Err())
}

// streamErr maps a stream teardown to its typed cause: the raw read error
// after an injected close is an unhelpful "read on closed body".
func (c *Client) streamErr(ctx context.Context, stalled *atomic.Bool, err error) error {
	switch {
	case stalled.Load():
		return fmt.Errorf("%w: no event within %s", ErrStreamStalled, c.streamIdle)
	case ctx.Err() != nil:
		return fmt.Errorf("%w: %v", ErrStreamCanceled, ctx.Err())
	}
	return err
}

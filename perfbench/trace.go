package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/setcontain"
)

// idHeader carries a request's trace id from the load generator to the
// middleware, so the client's span and the server's span of one request
// share it.
const idHeader = "X-Perfbench-Id"

// span is one timed interval at a layer boundary. Spans of one request
// share id; id 0 marks spans recorded outside any attributed request
// (concurrent load, where shard calls cannot be told apart).
type span struct {
	name       string
	id         int64
	start, end time.Duration // offsets from the tracer's base
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory while enabled; write dumps them at exit.
// A nil tracer is a disabled one, so untraced runs carry no wrappers.
type tracer struct {
	enabled atomic.Bool
	base    time.Time
	// current attributes spans recorded below the sequential replay to
	// the request being replayed (0 outside a replay).
	current atomic.Int64

	mu    sync.Mutex
	spans []span

	bytesIn, bytesOut atomic.Int64 // front handler request/response bodies
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) on() bool { return t != nil && t.enabled.Load() }

func (t *tracer) record(name string, id int64, start, end time.Time) {
	s := span{name: name, id: id, start: start.Sub(t.base), end: end.Sub(t.base)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the spans named name recorded since mark (an index into
// the span log, from t.mark).
func (t *tracer) take(name string, mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans[mark:] {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps every span as one tab-separated line: name, id, start and
// end in nanoseconds from the tracer's base.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\n", s.name, s.id, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// middleware wraps a server's routes: each request is tagged with the
// id its client sent (or the replay's current id), timed as a span
// named name, and its body bytes are counted.
func (t *tracer) middleware(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on() {
			next.ServeHTTP(w, r)
			return
		}
		id, _ := strconv.ParseInt(r.Header.Get(idHeader), 10, 64)
		if id == 0 {
			id = t.current.Load()
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(cw, r)
		t.record(name, id, start, time.Now())
		if name == "handler" {
			t.bytesIn.Add(max(r.ContentLength, 0))
			t.bytesOut.Add(cw.n)
		}
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// shardClient wraps a ShardClient so every data-plane call of its
// sessions is recorded as a "shard.rpc" span.
func (t *tracer) shardClient(c setcontain.ShardClient) setcontain.ShardClient {
	return &tracedClient{ShardClient: c, t: t}
}

type tracedClient struct {
	setcontain.ShardClient
	t *tracer
}

func (c *tracedClient) Session(cachePages int) (setcontain.ShardSession, error) {
	s, err := c.ShardClient.Session(cachePages)
	if err != nil {
		return nil, err
	}
	return &tracedSession{ShardSession: s, t: c.t}, nil
}

type tracedSession struct {
	setcontain.ShardSession
	t *tracer
}

func (s *tracedSession) AppendQuery(ctx context.Context, dst []uint32, q setcontain.Query) ([]uint32, error) {
	start := time.Now()
	out, err := s.ShardSession.AppendQuery(ctx, dst, q)
	if s.t.on() {
		s.t.record("shard.rpc", s.t.current.Load(), start, time.Now())
	}
	return out, err
}

func (s *tracedSession) AppendExpr(ctx context.Context, dst []uint32, e *setcontain.Expr, limit int) ([]uint32, error) {
	start := time.Now()
	out, err := s.ShardSession.AppendExpr(ctx, dst, e, limit)
	if s.t.on() {
		s.t.record("shard.rpc", s.t.current.Load(), start, time.Now())
	}
	return out, err
}

// countingTransport is the http.RoundTripper under coord-remote's shard
// clients: it records each shard HTTP exchange, from sending the
// request to the response body's close, as a "shard.http" span, and
// counts the body bytes both ways.
type countingTransport struct {
	tr    *tracer
	next  http.RoundTripper
	bytes atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !c.tr.on() {
		return c.next.RoundTrip(r)
	}
	id := c.tr.current.Load()
	start := time.Now()
	resp, err := c.next.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	c.bytes.Add(max(r.ContentLength, 0))
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
		c.bytes.Add(n)
		c.tr.record("shard.http", id, start, time.Now())
	}}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

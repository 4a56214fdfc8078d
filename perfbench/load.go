package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// sloP99 is the read latency objective: read_qps_at_slo is the highest
// offered rate whose p99 stays at or below it. It sits clear above the
// p99 every workload shows at its high fixed rate (coord-remote's
// measured 9–28 ms there on a 2-vCPU VM), so the search finds the
// knee where queueing takes over rather than the noise in the tail.
const sloP99 = 50 * time.Millisecond

// lateBound is the load generator's validity bound: a run whose
// sends' p99 lateness exceeds it did not deliver its schedule, and is
// reported as a problem.
const lateBound = 5 * time.Millisecond

// requestTimeout bounds one client request; a request that takes longer
// counts as failed.
const requestTimeout = 5 * time.Second

// Error classes a request can end in; each counts in error_rate.
var (
	errWrong   = errors.New("answer does not match the oracle digest")
	errRefused = errors.New("refused (429)")
	errServer  = errors.New("server error (5xx)")
)

// client is one load-generator connection: an HTTP client whose
// transport keeps exactly one connection to the server, so n clients
// are n connections.
type client struct {
	hc  *http.Client
	url string
	buf bytes.Buffer
	tr  *tracer
}

func newClients(n int, url string, tr *tracer) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{
			hc: &http.Client{Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			}},
			url: url,
			tr:  tr,
		}
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
}

// post sends body to path and reads the whole response into c.buf.
// A traced client tags the request with id and records the round trip
// as an "http" span.
func (c *client) post(path string, body []byte, id int64) error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	traced := c.tr.on()
	if traced {
		req.Header.Set(idHeader, strconv.FormatInt(id, 10))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if traced {
		c.tr.record("http", id, start, time.Now())
	}
	if err != nil {
		return err
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return errRefused
	case resp.StatusCode >= 500:
		return errServer
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("status %s: %s", resp.Status, bytes.TrimSpace(c.buf.Bytes()))
	}
	return nil
}

// query answers pool entry r over POST /query and checks the answer.
func (c *client) query(r *request, id int64) (int, error) {
	if err := c.post("/query", r.body, id); err != nil {
		return 0, err
	}
	return checkNDJSON(c.buf.Bytes(), r.want)
}

// checkNDJSON digests a POST /query response (one query's Result lines)
// and compares it with want, returning the answer size.
func checkNDJSON(body []byte, want digest) (int, error) {
	got := newDigest()
	count := -1
	for len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		if len(line) == 0 {
			continue
		}
		if bytes.Contains(line, []byte(`"error"`)) {
			return 0, fmt.Errorf("query failed: %s", line)
		}
		if err := digestIDs(line, &got); err != nil {
			return 0, err
		}
		if bytes.Contains(line, []byte(`"done":true`)) {
			n, err := intField(line, `"count":`)
			if err != nil {
				return 0, err
			}
			count = n
		}
	}
	if count != got.n {
		return 0, fmt.Errorf("response carries %d ids but reports count %d", got.n, count)
	}
	if got != want {
		return got.n, errWrong
	}
	return got.n, nil
}

// digestIDs folds the "ids" array of one Result line into d.
func digestIDs(line []byte, d *digest) error {
	i := bytes.Index(line, []byte(`"ids":[`))
	if i < 0 {
		return nil // a final line without ids (empty chunk)
	}
	p := line[i+len(`"ids":[`):]
	var v uint64
	digits := false
	for j, ch := range p {
		switch {
		case ch >= '0' && ch <= '9':
			v = v*10 + uint64(ch-'0')
			digits = true
		case ch == ',' || ch == ']':
			if digits {
				d.add(uint32(v))
			}
			v, digits = 0, false
			if ch == ']' {
				return nil
			}
		default:
			return fmt.Errorf("unexpected byte %q at %d of ids array", ch, j)
		}
	}
	return errors.New("unterminated ids array")
}

func intField(line []byte, key string) (int, error) {
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return 0, fmt.Errorf("line lacks %s: %s", key, line)
	}
	p := line[i+len(key):]
	j := 0
	for j < len(p) && p[j] >= '0' && p[j] <= '9' {
		j++
	}
	return strconv.Atoi(string(p[:j]))
}

// postJSON sends in as JSON and decodes the response into out.
func (c *client) postJSON(path string, in, out any, id int64) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	if err := c.post(path, body, id); err != nil {
		return err
	}
	return json.Unmarshal(c.buf.Bytes(), out)
}

// epoch is the benchmark's clock origin: sample and span times are
// offsets from it, so samples of concurrent loops compare directly.
var epoch = time.Now()

// sample is one scheduled request of an open loop. Times are offsets
// from epoch.
type sample struct {
	i               int // the request's position in its loop
	due, start, end time.Duration
	// ready is when a connection was free to send it: its due time, or
	// later when every connection was busy then.
	ready time.Duration
	ran   bool
	err   error
	size  int
}

// latency is the request's latency counted from its due time.
func (s *sample) latency() time.Duration { return s.end - s.due }

// loop is an open-loop load: request i is due at i/rate seconds after
// the start, whatever happened to earlier requests. Each client is one
// connection; a request that comes due while every connection is busy
// waits for the first free one, and that wait is part of its latency.
type loop struct {
	rate float64
	n    int // requests to schedule (0 = until stop closes)
	// stop ends an unbounded loop: no request due after it is sent.
	stop <-chan struct{}
	// abortSlow, when > 0, stops scheduling once that many requests
	// have missed the SLO — the probe has already failed.
	abortSlow int
	do        func(c *client, i int) (int, error)
}

// run drives the loop over cs and returns every sample, in due order.
// Samples never sent (after an abort) have ran false.
func (l loop) run(cs []*client) []sample {
	interval := time.Duration(float64(time.Second) / l.rate)
	var (
		next    atomic.Int64
		slow    atomic.Int64
		mu      sync.Mutex
		samples = make([]sample, 0, l.n)
		wg      sync.WaitGroup
	)
	base := time.Since(epoch)
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var free time.Duration
			for {
				i := int(next.Add(1) - 1)
				if l.n > 0 && i >= l.n || l.abortSlow > 0 && int(slow.Load()) >= l.abortSlow {
					return
				}
				s := sample{i: i, due: base + time.Duration(i)*interval}
				if wait := s.due - time.Since(epoch); wait > 0 {
					if l.stop != nil {
						select {
						case <-l.stop:
							return
						case <-time.After(wait):
						}
					} else {
						time.Sleep(wait)
					}
				} else if l.stop != nil {
					select {
					case <-l.stop:
						return
					default:
					}
				}
				s.ready = max(s.due, free)
				s.start = time.Since(epoch)
				s.size, s.err = l.do(c, i)
				s.end = time.Since(epoch)
				s.ran = true
				free = s.end
				if s.err != nil || s.latency() > sloP99 {
					slow.Add(1)
				}
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	sort.Slice(samples, func(i, j int) bool { return samples[i].due < samples[j].due })
	return samples
}

// tally summarizes a set of samples.
type tally struct {
	attempted, failed, wrong int64
	lat                      []time.Duration // successful requests, sorted
	late                     []time.Duration // send time minus ready time, sorted
	ids                      int64
	firstErr                 error
}

func tallyOf(samples []sample) tally {
	var t tally
	for i := range samples {
		s := &samples[i]
		if !s.ran {
			continue
		}
		t.attempted++
		t.late = append(t.late, s.start-s.ready)
		if s.err != nil {
			t.failed++
			if errors.Is(s.err, errWrong) {
				t.wrong++
			}
			if t.firstErr == nil {
				t.firstErr = s.err
			}
			continue
		}
		t.lat = append(t.lat, s.latency())
		t.ids += int64(s.size)
	}
	sortDurations(t.lat)
	sortDurations(t.late)
	return t
}

func (t *tally) add(u tally) {
	t.attempted += u.attempted
	t.failed += u.failed
	t.wrong += u.wrong
	t.ids += u.ids
	t.lat = append(t.lat, u.lat...)
	t.late = append(t.late, u.late...)
	sortDurations(t.lat)
	sortDurations(t.late)
	if t.firstErr == nil {
		t.firstErr = u.firstErr
	}
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}

// quantile returns the nearest-rank q-quantile of sorted ds (0 when
// empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	if i < 0 {
		i = 0
	}
	return ds[i]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// meetsSLO reports whether a probe passed: every scheduled request was
// sent and answered, and the p99 latency is within the objective. A
// backlog that grows shows up as rising latency, so a probe whose queue
// grows fails on p99 before its end.
func meetsSLO(samples []sample, scheduled int) bool {
	t := tallyOf(samples)
	if int(t.attempted) < scheduled || t.failed > 0 {
		return false
	}
	return quantile(t.lat, 0.99) <= sloP99
}

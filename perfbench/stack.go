package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataset"
	"repro/internal/wal"
	"repro/setcontain"
	"repro/setcontain/serve"
)

// stack is one workload's serving stack: the front server clients talk
// to, plus whatever stands behind it (shard servers, a write-ahead log).
type stack struct {
	url   string
	front *serve.Server
	idx   *setcontain.Index
	store *setcontain.Store
	// stores lists every Store in the stack, front first: engine
	// counters are summed over all of them (a coordinator's own store
	// reads no pages; its shards' stores do).
	stores  []*setcontain.Store
	durable *setcontain.Durable
	// shards and shardIdx are coord-remote's shard servers and the
	// indexes they serve.
	shards   []*serve.Server
	shardIdx []*setcontain.Index
	// remote is coord-remote's transport probe (traced runs only).
	remote *countingTransport

	// buildTime is the index construction share of setup.
	buildTime time.Duration

	closers []func()
}

// close stops every listener and server of the stack, front first, and
// waits for their goroutines.
func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// serveOn mounts h on a fresh loopback listener and returns its base
// URL. The stack's close stops the listener, waits for the serving
// goroutine, and closes sv.
func (s *stack) serveOn(sv *serve.Server, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sv.Close()
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed once close runs
	}()
	s.closers = append(s.closers, func() {
		hs.Close()
		<-done
		sv.Close()
	})
	return "http://" + ln.Addr().String(), nil
}

// handler returns sv's routes, wrapped in the tracing middleware when
// the run is traced.
func handler(sv *serve.Server, tr *tracer, name string) http.Handler {
	if tr == nil {
		return sv.Handler()
	}
	return tr.middleware(name, sv.Handler())
}

// waitHealthy polls GET /healthz until it answers 200.
func waitHealthy(url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %s", resp.Status)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy: %v", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// newSingle serves one OIF index over d, configured as setcontaind
// configures it by default.
func newSingle(d *dataset.Dataset, tr *tracer) (*stack, error) {
	s := &stack{}
	start := time.Now()
	idx, err := setcontain.New(setcontain.WrapDataset(d))
	if err != nil {
		return nil, err
	}
	s.buildTime = time.Since(start)
	store := setcontain.NewStore(idx, 0)
	return s, s.front1(idx, store, serve.Config{}, tr)
}

// newSharded serves a 4-shard in-process sharded index over d.
func newSharded(d *dataset.Dataset, tr *tracer) (*stack, error) {
	s := &stack{}
	start := time.Now()
	idx, err := setcontain.New(setcontain.WrapDataset(d),
		setcontain.WithKind(setcontain.Sharded), setcontain.WithShards(4))
	if err != nil {
		return nil, err
	}
	s.buildTime = time.Since(start)
	store := setcontain.NewStore(idx, 0)
	return s, s.front1(idx, store, serve.Config{}, tr)
}

// durableOptions is ingest-durable's write-ahead log configuration:
// fsync before every acknowledgement. Automatic checkpoints are off;
// the maintenance phase checkpoints explicitly.
func durableOptions() setcontain.DurableOptions {
	return setcontain.DurableOptions{Sync: wal.SyncAlways, CheckpointBytes: -1}
}

// newDurable serves one OIF index over d behind a write-ahead log in
// dir (which must not exist yet).
func newDurable(d *dataset.Dataset, dir string, tr *tracer) (*stack, error) {
	s := &stack{}
	start := time.Now()
	idx, err := setcontain.New(setcontain.WrapDataset(d))
	if err != nil {
		return nil, err
	}
	s.buildTime = time.Since(start)
	dur, err := setcontain.NewDurable(dir, idx, durableOptions())
	if err != nil {
		return nil, err
	}
	return s, s.frontDurable(dur, tr)
}

// openDurable recovers a durable stack from dir.
func openDurable(dir string, tr *tracer) (*stack, error) {
	dur, err := setcontain.OpenDurable(dir, durableOptions())
	if err != nil {
		return nil, err
	}
	s := &stack{}
	return s, s.frontDurable(dur, tr)
}

func (s *stack) frontDurable(dur *setcontain.Durable, tr *tracer) error {
	s.durable = dur
	s.closers = append(s.closers, func() { dur.Close() })
	return s.front1(dur.Index(), dur.Store(), serve.Config{Durable: dur}, tr)
}

// front1 starts the front server over store.
func (s *stack) front1(idx *setcontain.Index, store *setcontain.Store, cfg serve.Config, tr *tracer) error {
	s.idx, s.store = idx, store
	s.stores = append([]*setcontain.Store{store}, s.stores...)
	s.front = serve.NewServer(idx, store, cfg)
	url, err := s.serveOn(s.front, handler(s.front, tr, "handler"))
	if err != nil {
		return err
	}
	s.url = url
	return waitHealthy(url)
}

// newCoordRemote serves a coordinator over two shard servers on
// loopback, each holding one slice of a round-robin partition of d, as
// `setcontaind -coordinator` over `setcontaind -shard-of i -index oif`
// daemons does. slices are the shards' collections, prepared outside
// the timed setup like any other input.
func newCoordRemote(slices []*setcontain.Collection, tr *tracer) (*stack, error) {
	s := &stack{}
	start := time.Now()
	idxs := make([]*setcontain.Index, len(slices))
	for i, c := range slices {
		idx, err := setcontain.New(c, setcontain.WithKind(setcontain.OIF))
		if err != nil {
			return nil, err
		}
		idxs[i] = idx
	}
	s.buildTime = time.Since(start)
	urls := make([]string, len(idxs))
	for i, idx := range idxs {
		store := setcontain.NewStore(idx, 0)
		sv := serve.NewServer(idx, store, serve.Config{})
		url, err := s.serveOn(sv, handler(sv, tr, "shard.handler"))
		if err != nil {
			s.close()
			return nil, err
		}
		urls[i] = url
		s.shards = append(s.shards, sv)
		s.shardIdx = append(s.shardIdx, idx)
		s.stores = append(s.stores, store)
		if err := waitHealthy(url); err != nil {
			s.close()
			return nil, err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var (
		idx *setcontain.Index
		err error
	)
	if tr == nil {
		idx, err = setcontain.ConnectShards(ctx, urls)
	} else {
		// Traced: the same remote clients ConnectShards makes, with a
		// counting transport under them and span-recording wrappers
		// around them.
		s.remote = &countingTransport{tr: tr, next: http.DefaultTransport}
		clients := make([]setcontain.ShardClient, len(urls))
		for i, u := range urls {
			clients[i] = tr.shardClient(setcontain.NewRemoteShard(u, &http.Client{Transport: s.remote}))
		}
		idx, err = setcontain.ShardedOverClients(ctx, clients)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	if err := s.front1(idx, setcontain.NewStore(idx, 0), serve.Config{}, tr); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// shardSlices splits d into n round-robin slices, each renumbered into
// its shard's local id space — what `setcontaind -shard-of` keeps.
func shardSlices(d *dataset.Dataset, n int) ([]*setcontain.Collection, error) {
	part := setcontain.NewRoundRobinPartitioner(n)
	out := make([]*setcontain.Collection, n)
	for i := range out {
		out[i] = setcontain.NewCollection(d.DomainSize())
	}
	for _, r := range d.Records() {
		shard, local := part.Locate(r.ID)
		id, err := out[shard].Add(r.Set)
		if err != nil {
			return nil, err
		}
		if id != local {
			return nil, fmt.Errorf("record %d landed at local id %d of shard %d, partitioner says %d", r.ID, id, shard, local)
		}
	}
	return out, nil
}

// walDir names a fresh write-ahead log directory under the work
// directory, removing any leftover of the same name.
func walDir(cfg config, w string, k int) (string, error) {
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("wal-%s-%d-%d-%d", w, cfg.seed, os.Getpid(), k))
	if err := os.RemoveAll(dir); err != nil && !errors.Is(err, os.ErrNotExist) {
		return "", err
	}
	return dir, os.MkdirAll(cfg.workDir, 0o755)
}

package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"kat/internal/checkpoint"
	"kat/internal/cluster"
	"kat/internal/core"
	"kat/internal/faultfs"
	"kat/internal/online"
	"kat/internal/trace"
	"kat/internal/wal"
)

// serverOpts varies a target between phases and runs.
type serverOpts struct {
	// rec records handler, hop, file and blob spans; nil when untraced.
	rec *recorder
	// onSegment is chained after the server's own segment bookkeeping.
	onSegment func(trace.SegmentVerdict)
	// dataDir is the durable workload's data directory.
	dataDir string
	// checkpointEvery runs Manager.Checkpoint on this cadence (durable
	// only; 0 = never).
	checkpointEvery time.Duration
}

// target is one running service under test on loopback: a single node, or
// a cluster router in front of its members. Clients talk to url.
type target struct {
	url     string
	nodes   []*online.Server
	https   []*http.Server
	served  sync.WaitGroup
	router  *cluster.Router
	hops    *http.Transport
	pool    *core.Pool
	mgr     *checkpoint.Manager
	recover time.Duration // the online.NewDurable call

	ckptStop  chan struct{}
	ckptDone  chan struct{}
	ckptMu    sync.Mutex
	ckptTimes []time.Duration
	ckptBytes []int64
	ckptErr   error
}

// serverConfig mirrors kavserve's defaults: k=2, memo on, default ingest
// shards, a GOMAXPROCS verification pool, plus the workload's properties
// (and its retirement TTL on the lifecycle workload).
func (w *workload) serverConfig(o serverOpts) online.Config {
	cfg := online.Config{K: verdictK}
	cfg.Opts.Memo = core.NewMemo()
	cfg.Stream.Properties = w.props
	cfg.Stream.OnSegment = o.onSegment
	if w.durable {
		cfg.Stream.RetireTTL = retireTTL
	}
	return cfg
}

// start builds a fresh target for w and waits until its /healthz answers.
// The returned duration runs from server construction to that answer; on
// the durable workload it includes recovering o.dataDir.
func start(w *workload, o serverOpts) (*target, time.Duration, error) {
	t := &target{}
	begin := time.Now()
	switch {
	case w.cluster:
		// One shared pool, so the three members together run no more
		// verification workers than the machine has processors.
		t.pool = core.NewPool(0)
		var nodes []string
		for i := 0; i < 3; i++ {
			cfg := w.serverConfig(o)
			cfg.Stream.Pool = t.pool
			srv := online.New(cfg)
			t.nodes = append(t.nodes, srv)
			url, err := t.serve(o.rec.handler("online", srv.Handler()))
			if err != nil {
				t.close()
				return nil, 0, err
			}
			nodes = append(nodes, url)
		}
		t.hops = &http.Transport{Proxy: nil, MaxIdleConnsPerHost: 4}
		rt, err := cluster.NewRouter(cluster.Config{
			Nodes:  nodes,
			Client: &http.Client{Transport: hopTransport{rec: o.rec, base: t.hops}},
		})
		if err != nil {
			t.close()
			return nil, 0, err
		}
		rt.Start()
		t.router = rt
		if t.url, err = t.serve(o.rec.handler("cluster", rt.Handler())); err != nil {
			t.close()
			return nil, 0, err
		}
	case w.durable:
		var fsys faultfs.FS = faultfs.OS()
		if o.rec != nil {
			fsys = timedFS{FS: fsys, rec: o.rec}
		}
		// The WAL is not fsynced per batch (kavserve -fsync never); the
		// checkpoints still are. With -fsync batch every 64-op request
		// fsyncs all 16 shard files, and on the shared disk the benchmark
		// was tuned on that put a 10-seed spread of 0.24 to 0.42 of the
		// median on throughput and ack_p50_ms: disk drift, not the code.
		mgr, err := checkpoint.Open(fsys, o.dataDir, checkpoint.Config{Policy: wal.SyncNever})
		if err != nil {
			return nil, 0, err
		}
		t.mgr = mgr
		cfg := w.serverConfig(o)
		if o.rec != nil {
			cfg.Stream.Store = timedStore{BlobStore: mgr.Store(), rec: o.rec}
		}
		var srv *online.Server
		rbegin := time.Now()
		err = o.rec.timed(spanRecover, func() (err error) {
			srv, _, err = online.NewDurable(cfg, mgr)
			return err
		})
		t.recover = time.Since(rbegin)
		if err != nil {
			mgr.Close()
			return nil, 0, fmt.Errorf("recover %s: %w", o.dataDir, err)
		}
		t.nodes = append(t.nodes, srv)
		if t.url, err = t.serve(o.rec.handler("online", srv.Handler())); err != nil {
			t.close()
			return nil, 0, err
		}
	default:
		srv := online.New(w.serverConfig(o))
		t.nodes = append(t.nodes, srv)
		var err error
		if t.url, err = t.serve(o.rec.handler("online", srv.Handler())); err != nil {
			t.close()
			return nil, 0, err
		}
	}
	if err := waitHealthy(t.url); err != nil {
		t.close()
		return nil, 0, err
	}
	setup := time.Since(begin)
	if t.mgr != nil && o.checkpointEvery > 0 {
		t.startCheckpoints(o.checkpointEvery, o.rec)
	}
	return t, setup, nil
}

// serve runs h on a fresh loopback listener and returns its base URL.
func (t *target) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	t.https = append(t.https, hs)
	t.served.Add(1)
	go func() {
		defer t.served.Done()
		hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// healthClient opens a fresh connection per probe, so set-up time includes
// connecting and no idle connection outlives the target.
var healthClient = &http.Client{Transport: &http.Transport{Proxy: nil, DisableKeepAlives: true}}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := healthClient.Get(url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// startCheckpoints takes a checkpoint every interval until close, timing
// each Manager.Checkpoint call and noting the checkpoint's size.
func (t *target) startCheckpoints(every time.Duration, rec *recorder) {
	t.ckptStop = make(chan struct{})
	t.ckptDone = make(chan struct{})
	go func() {
		defer close(t.ckptDone)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-t.ckptStop:
				return
			case <-tick.C:
			}
			begin := time.Now()
			err := rec.timed(spanCheckpoint, t.mgr.Checkpoint)
			t.ckptMu.Lock()
			if err != nil && t.ckptErr == nil {
				t.ckptErr = err
			}
			if err == nil {
				t.ckptTimes = append(t.ckptTimes, time.Since(begin))
				t.ckptBytes = append(t.ckptBytes, t.mgr.Stats().LastCheckpointBytes)
			}
			t.ckptMu.Unlock()
		}
	}()
}

// stopCheckpoints ends the checkpoint ticker and reports its first error.
func (t *target) stopCheckpoints() error {
	if t.ckptStop != nil {
		close(t.ckptStop)
		<-t.ckptDone
		t.ckptStop = nil
	}
	t.ckptMu.Lock()
	defer t.ckptMu.Unlock()
	return t.ckptErr
}

// crash stops the target without draining, the way a killed process
// leaves its data directory: whatever the WAL and checkpoints hold is what
// recovery sees.
func (t *target) crash() error {
	err := t.stopCheckpoints()
	t.stopHTTP()
	if t.mgr != nil {
		if cerr := t.mgr.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// close drains every node (releasing its verification workers), stops the
// listeners, the router and the durability manager, and waits for every
// serving goroutine to end.
func (t *target) close() error {
	err := t.stopCheckpoints()
	t.stopHTTP()
	for _, srv := range t.nodes {
		if derr := srv.Drain(); derr != nil && err == nil {
			err = derr
		}
	}
	if t.pool != nil {
		t.pool.Close()
	}
	if t.mgr != nil {
		if cerr := t.mgr.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

func (t *target) stopHTTP() {
	if t.router != nil {
		t.router.Close()
	}
	for _, hs := range t.https {
		hs.Close() // only reports listener-close errors; nothing to undo
	}
	t.served.Wait()
	if t.hops != nil {
		t.hops.CloseIdleConnections()
	}
}

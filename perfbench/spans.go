package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kat/internal/faultfs"
	"kat/internal/trace"
)

// span is one timed call at a layer boundary. Spans of one request share
// identifiers: a handler span's Parent is the client (or router hop) span
// that sent the request.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	// Peer names the other side of a hop (the member a router forwarded
	// to).
	Peer  string `json:"peer,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Count is the work the span did: bytes for file writes, operations
	// for segment verdicts.
	Count int64 `json:"count,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Span names recorded by the wrappers.
const (
	spanClientIngest = "loadgen POST /ingest"
	spanOnlineIngest = "online POST /ingest"
	spanOnlineDrain  = "online POST /drain"
	spanRouterIngest = "cluster POST /ingest"
	spanRouterDrain  = "cluster POST /drain"
	spanHopIngest    = "cluster hop POST /ingest"
	spanSegment      = "core segment verdict"
	spanRecover      = "checkpoint recover"
	spanCheckpoint   = "checkpoint Manager.Checkpoint"
	spanWALWrite     = "wal write"
	spanWALSync      = "wal fsync"
)

// headerParent carries the sending span's ID across a hop.
const headerParent = "X-Bench-Parent"

// recorder keeps spans in memory; they are written out when the run ends.
// A nil recorder records nothing, which is how untraced runs call the same
// code paths.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) newID() int64 { return r.ids.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed records fn as a span named name.
func (r *recorder) timed(name string, fn func() error) error {
	if r == nil {
		return fn()
	}
	start := r.now()
	err := fn()
	r.add(span{Name: name, ID: r.newID(), Start: start, End: r.now()})
	return err
}

// onSegment wraps a segment-verdict hook so a traced round also records
// each verdict as a zero-length span carrying the segment's op count.
func (r *recorder) onSegment(fn func(trace.SegmentVerdict)) func(trace.SegmentVerdict) {
	if r == nil {
		return fn
	}
	return func(v trace.SegmentVerdict) {
		fn(v)
		at := r.now()
		r.add(span{Name: spanSegment, ID: r.newID(), Start: at, End: at, Count: int64(v.Ops)})
	}
}

// byName returns the recorded spans with the given name.
func (r *recorder) byName(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// writeJSONL writes the spans to path, one JSON object per line, in start
// order.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

// handler wraps an HTTP handler with a span per request, named
// "<layer> <method> <path>". The span's ID travels in the request context
// so a router's forwarding transport can name it as its hops' parent.
func (r *recorder) handler(layer string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := r.newID()
		parent, _ := strconv.ParseInt(req.Header.Get(headerParent), 10, 64)
		start := r.now()
		h.ServeHTTP(w, req.WithContext(context.WithValue(req.Context(), spanKey{}, id)))
		r.add(span{Name: layer + " " + req.Method + " " + req.URL.Path, ID: id, Parent: parent,
			Start: start, End: r.now()})
	})
}

// hopTransport times the cluster router's forwarded requests and tags them
// with the hop span's ID, so member handler spans link back to the router
// request that caused them.
type hopTransport struct {
	rec  *recorder
	base http.RoundTripper
}

func (t hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.rec == nil {
		return t.base.RoundTrip(req)
	}
	parent, _ := req.Context().Value(spanKey{}).(int64)
	id := t.rec.newID()
	req = req.Clone(req.Context())
	req.Header.Set(headerParent, strconv.FormatInt(id, 10))
	start := t.rec.now()
	resp, err := t.base.RoundTrip(req)
	t.rec.add(span{Name: "cluster hop " + req.Method + " " + req.URL.Path, ID: id, Parent: parent,
		Peer: req.URL.Host, Start: start, End: t.rec.now()})
	return resp, err
}

// timedFS times every write and fsync the durability layer issues. WAL
// files and checkpoint files are told apart by name; spill blobs are the
// rest.
type timedFS struct {
	faultfs.FS
	rec *recorder
}

func (f timedFS) Create(name string) (faultfs.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	kind := "spill"
	switch base := filepath.Base(name); {
	case len(base) >= 4 && base[:4] == "wal-":
		kind = "wal"
	case len(base) >= 5 && base[:5] == "ckpt-":
		kind = "checkpoint"
	}
	return &timedFile{File: file, rec: f.rec, kind: kind}, nil
}

type timedFile struct {
	faultfs.File
	rec  *recorder
	kind string
}

func (t *timedFile) Write(p []byte) (int, error) {
	start := t.rec.now()
	n, err := t.File.Write(p)
	t.rec.add(span{Name: t.kind + " write", ID: t.rec.newID(), Start: start, End: t.rec.now(), Count: int64(n)})
	return n, err
}

func (t *timedFile) Sync() error {
	start := t.rec.now()
	err := t.File.Sync()
	t.rec.add(span{Name: t.kind + " fsync", ID: t.rec.newID(), Start: start, End: t.rec.now()})
	return err
}

// timedStore times the session's spill store (Stream.Store).
type timedStore struct {
	trace.BlobStore
	rec *recorder
}

func (s timedStore) Put(data []byte) (uint64, error) {
	var id uint64
	err := s.rec.timed("blob put", func() (err error) { id, err = s.BlobStore.Put(data); return err })
	return id, err
}

func (s timedStore) Get(id uint64) ([]byte, error) {
	var data []byte
	err := s.rec.timed("blob get", func() (err error) { data, err = s.BlobStore.Get(id); return err })
	return data, err
}

func (s timedStore) Del(id uint64) error {
	return s.rec.timed("blob del", func() error { return s.BlobStore.Del(id) })
}

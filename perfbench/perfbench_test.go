package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kat/internal/generator"
	"kat/internal/online"
	"kat/internal/wire"
)

// TestSeedDeterminism: the same seed gives byte-identical request bodies and
// identical reference verdicts; another seed gives different bodies.
func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := prepare(w, 7, 2, false)
			if err != nil {
				t.Fatal(err)
			}
			defer a.close()
			b, err := prepare(w, 7, 2, false)
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			c, err := prepare(w, 8, 2, false)
			if err != nil {
				t.Fatal(err)
			}
			defer c.close()
			if !reflect.DeepEqual(a.replayB, b.replayB) || !reflect.DeepEqual(a.liveB, b.liveB) ||
				!reflect.DeepEqual(a.prefixB, b.prefixB) {
				t.Fatal("same seed produced different request bodies")
			}
			if !reflect.DeepEqual(a.ref, b.ref) || !reflect.DeepEqual(a.refLive, b.refLive) {
				t.Fatal("same seed produced different reference verdicts")
			}
			if reflect.DeepEqual(a.replayB, c.replayB) {
				t.Fatal("seeds 7 and 8 produced identical request bodies")
			}
			if a.total != w.ops {
				t.Fatalf("trace has %d ops, workload declares %d", a.total, w.ops)
			}
			violating := 0
			for _, rv := range a.ref {
				if rv.status == "violating" {
					violating++
				}
			}
			if violating == 0 && w.name != "durable-churn-wire" {
				t.Fatal("no key violates k=2: the injected stale reads did not take")
			}
		})
	}
}

// shedTarget serves a node that refuses the requests of its first 100 ms
// with the typed memory_pressure reject (503 + Retry-After): its live-heap
// probe reads over the hard watermark on the first poll, which the node
// caches for its poll interval, and under it afterwards.
//
// OverloadOps cannot be made to shed this reliably: a node's ingest blocks
// on its verification pool, which holds buffered operations near what an
// idle node keeps in open windows and held segments, so a cap either never
// trips or trips on that floor and never clears.
func shedTarget(t *testing.T, w *workload) *target {
	t.Helper()
	cfg := w.serverConfig(serverOpts{})
	var polls atomic.Int64
	cfg.HardWatermarkBytes = 1
	cfg.MemUsage = func() uint64 {
		if polls.Add(1) == 1 {
			return 2
		}
		return 0
	}
	srv := online.New(cfg)
	tg := &target{nodes: []*online.Server{srv}}
	url, err := tg.serve(srv.Handler())
	if err != nil {
		t.Fatal(err)
	}
	tg.url = url
	return tg
}

// smallBench is a trace of two keys, one per connection, 1600 ops each in
// 256-op requests; the second key has reads 3 writes stale, more than k=2.
func smallBench(t *testing.T, w *workload) *bench {
	t.Helper()
	var ops []wire.Op
	for c, key := range []string{"key-a", "key-b"} {
		if connOf(key, 2) != c {
			t.Fatalf("%s routes to connection %d, want %d", key, connOf(key, 2), c)
		}
		h := generator.KAtomic(generator.Config{Seed: int64(c), Ops: 1600, StalenessDepth: 1})
		if c == 1 {
			h = generator.InjectStaleness(h, 3, 0.05, 2)
		}
		for _, op := range h.Ops {
			ops = append(ops, wire.Op{Key: key, Op: op})
		}
	}
	sortArrival(ops)
	b := &bench{w: w, conns: 2}
	t.Cleanup(b.close)
	b.keys, _ = byKey(ops)
	b.keyIdx = map[string]int{"key-a": 0, "key-b": 1}
	var err error
	if b.replayB, err = encodeAll(&b.bodies, requests(ops, 2, 256), w.wire); err != nil {
		t.Fatal(err)
	}
	live := requests(ops, 2, 256)
	if b.liveB, err = encodeAll(&b.bodies, live, w.wire); err != nil {
		t.Fatal(err)
	}
	if b.carried, b.sent, err = liveCarried(live, b.keyIdx); err != nil {
		t.Fatal(err)
	}
	if b.ref, err = reference(traceText(ops), w.props); err != nil {
		t.Fatal(err)
	}
	if b.ref["key-b"].status != "violating" {
		t.Fatalf("reference status %q, want violating", b.ref["key-b"].status)
	}
	return b
}

// TestRejectAccounting drives the client against a node that sheds load:
// refused attempts are counted as failed operations, their requests count
// as infinite latency, every wait honors Retry-After, and the drained
// verdicts still match the offline checker.
func TestRejectAccounting(t *testing.T) {
	for _, name := range []string{"uniform-text-k", "hotkey-wire-all"} {
		t.Run(name, func(t *testing.T) {
			w, err := findWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			b := smallBench(t, w)
			var mu sync.Mutex
			var waits []time.Duration
			clients := func(url string) []*conn {
				cs := b.clients(url, nil)
				for _, c := range cs {
					c.sleep = func(d time.Duration) {
						mu.Lock()
						waits = append(waits, d)
						mu.Unlock()
						time.Sleep(5 * time.Millisecond)
					}
				}
				return cs
			}

			tg := shedTarget(t, w)
			cs := clients(tg.url)
			var segs atomic.Int64
			res, err := replay(tg, cs, b.replayB, &segs)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkDoc(res.doc, b.ref); err != nil {
				t.Fatal(err)
			}
			if err := b.finish(tg, cs, ""); err != nil {
				t.Fatal(err)
			}
			if b.failed == 0 {
				t.Fatal("no refused attempt was counted")
			}
			if b.attempted != int64(res.ops)+b.failed {
				t.Fatalf("attempted %d, want the %d trace ops plus the %d refused", b.attempted, res.ops, b.failed)
			}

			tg = shedTarget(t, w)
			cs = clients(tg.url)
			log := newSegLog(b.keys, time.Now())
			lr, err := live(tg, cs, b.liveB, b.carried, 1e6, log, b.sent)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkDoc(lr.doc, b.ref); err != nil {
				t.Fatal(err)
			}
			failedBefore := b.failed
			if err := b.finish(tg, cs, ""); err != nil {
				t.Fatal(err)
			}
			inf := 0
			for _, v := range lr.acks {
				if math.IsInf(v, 1) {
					inf++
				}
			}
			if inf == 0 || b.failed == failedBefore {
				t.Fatalf("%d requests at +Inf latency, %d ops in refused attempts", inf, b.failed-failedBefore)
			}
			mu.Lock()
			defer mu.Unlock()
			for _, d := range waits {
				if d != time.Second {
					t.Fatalf("waited %v, want the server's Retry-After of 1s", d)
				}
			}
		})
	}
}

// TestRejectWithAcceptedOpsFails: a retryable reject that reports accepted
// operations ends the run instead of resending them, and its operations
// count as failed.
func TestRejectWithAcceptedOpsFails(t *testing.T) {
	var posts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		rw.Header().Set("Retry-After", "1")
		rw.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(rw).Encode(online.IngestReject{Code: "overload", Ingested: 3})
	}))
	defer srv.Close()
	c := newConn(srv.URL, false, nil)
	defer c.closeIdle()
	c.sleep = func(time.Duration) { t.Fatal("resent a partly accepted request") }
	refused, err := c.send(batch{ops: 8, body: []byte("w x 1 0 1\n")})
	if err == nil {
		t.Fatal("a reject with accepted operations did not fail the send")
	}
	if refused != 1 || posts.Load() != 1 || c.attempted != 8 || c.failed != 8 {
		t.Fatalf("refused %d, posts %d, attempted %d, failed %d; want 1, 1, 8, 8", refused, posts.Load(), c.attempted, c.failed)
	}
}

// TestKeptUp: a live phase below 98% of the offered rate gives no
// live-phase figure; its round's replay figures still count.
func TestKeptUp(t *testing.T) {
	b := &bench{w: &workload{liveRate: 1000}}
	round := func(achieved, ack float64) roundResult {
		return roundResult{
			replay: replayResult{ops: 100, verified: time.Second, ingest: time.Second},
			live:   liveResult{achieved: achieved, acks: []float64{ack}, ops: 1},
		}
	}
	rounds := []roundResult{round(1000, 1), round(970, 50), round(990, 3)}
	if got := len(b.keptUp(rounds)); got != 2 {
		t.Fatalf("%d rounds kept up, want 2", got)
	}
	e2e := b.endToEnd(rounds)
	if got := e2e["ack_p50_ms"].Value; got != 2 {
		t.Fatalf("ack_p50_ms %v, want 2 (the median of the two kept-up rounds)", got)
	}
	if got := e2e["verified_ops_per_s"].Value; got != 100 {
		t.Fatalf("verified_ops_per_s %v, want 100", got)
	}
}

// TestCheckDocDetectsMismatch: a verdict that differs from the reference in
// any compared field fails the check.
func TestCheckDocDetectsMismatch(t *testing.T) {
	w, err := findWorkload("hotkey-wire-all")
	if err != nil {
		t.Fatal(err)
	}
	ops := keyedKAtomic(5, 4, uniformCounts(4, 800), 2)
	text := traceText(ops)
	ref, err := reference(text, w.props)
	if err != nil {
		t.Fatal(err)
	}
	tg := &target{nodes: []*online.Server{online.New(w.serverConfig(serverOpts{}))}}
	url, err := tg.serve(tg.nodes[0].Handler())
	if err != nil {
		t.Fatal(err)
	}
	tg.url = url
	c := newConn(url, false, nil)
	if _, err := c.send(batch{body: text, ops: len(ops)}); err != nil {
		t.Fatal(err)
	}
	doc, err := drain(url)
	c.closeIdle()
	if cerr := tg.close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDoc(doc, ref); err != nil {
		t.Fatalf("unaltered document rejected: %v", err)
	}
	for name, alter := range map[string]func(*online.KeyStatus){
		"smallest k": func(ks *online.KeyStatus) { ks.SmallestK++ },
		"status": func(ks *online.KeyStatus) {
			ks.Status = map[bool]string{true: "violating", false: "ok"}[ks.Status == "ok"]
		},
		"ops":   func(ks *online.KeyStatus) { ks.Ops-- },
		"delta": func(ks *online.KeyStatus) { ks.Delta = &online.DeltaStatus{SmallestDelta: ks.Delta.SmallestDelta + 1} },
		"regularity": func(ks *online.KeyStatus) {
			ks.Regularity = &online.RegularityStatus{IrregularReads: ks.Regularity.IrregularReads + 1}
		},
	} {
		bad := doc
		bad.Keys = append([]online.KeyStatus(nil), doc.Keys...)
		alter(&bad.Keys[0])
		if err := checkDoc(bad, ref); err == nil {
			t.Errorf("altered %s was not detected", name)
		}
	}
	short := doc
	short.Keys = doc.Keys[1:]
	if err := checkDoc(short, ref); err == nil {
		t.Error("a missing key was not detected")
	}
}

// TestVerdictLag checks the op-to-verdict matching on a hand-built log: two
// requests for one key, verdicts covering 3 ops then 5, the second verdict
// after /drain began.
func TestVerdictLag(t *testing.T) {
	epoch := time.Unix(0, 0)
	log := newSegLog([]string{"k"}, epoch)
	log.cum[0] = 8
	log.recs[0] = []segRec{{cum: 3, at: int64(50 * time.Millisecond)}, {cum: 8, at: int64(90 * time.Millisecond)}}
	acks := [][]time.Time{{epoch.Add(10 * time.Millisecond), epoch.Add(20 * time.Millisecond)}}
	carried := [][][]keyCum{{{{key: 0, end: 4}}, {{key: 0, end: 8}}}}
	samples, verified := verdictLag(log, acks, carried, []int64{8}, epoch.Add(80*time.Millisecond))
	if verified != 3 {
		t.Fatalf("verified %d, want 3", verified)
	}
	want := []weighted{{v: 40, count: 3}}
	if !reflect.DeepEqual(samples, want) {
		t.Fatalf("samples %v, want %v", samples, want)
	}
	// A durable target verified 2 recovered ops ahead of the phase's.
	log.cum[0] = 10
	log.recs[0] = []segRec{{cum: 5, at: int64(50 * time.Millisecond)}, {cum: 10, at: int64(70 * time.Millisecond)}}
	samples, verified = verdictLag(log, acks, carried, []int64{8}, epoch.Add(80*time.Millisecond))
	want = []weighted{{v: 40, count: 3}, {v: 60, count: 1}, {v: 50, count: 4}}
	if verified != 8 || !reflect.DeepEqual(samples, want) {
		t.Fatalf("samples %v (%d verified), want %v", samples, verified, want)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the program: the same
// workloads, every end-to-end metric a run prints, and every per-layer
// metric with the unit the run gives it.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	b := &bench{w: workloads[0]}
	e2e := b.endToEnd(nil)
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("%d end-to-end metrics declared, a run prints %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): a run prints %+v", m.Name, m.Unit, got)
		}
	}
	if len(spec.PerLayer) != len(perLayerNames) {
		t.Errorf("%d per-layer metrics declared, a traced run prints %d", len(spec.PerLayer), len(perLayerNames))
	}
	for i, m := range spec.PerLayer {
		if i < len(perLayerNames) && (m.Name != perLayerNames[i] || m.Unit != layerUnit(m.Name)) {
			t.Errorf("per-layer %d: declared %s (%s), program has %s (%s)", i, m.Name, m.Unit,
				perLayerNames[i], layerUnit(perLayerNames[i]))
		}
	}
}

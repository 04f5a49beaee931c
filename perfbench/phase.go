package main

import (
	"fmt"
	"math"
	rtmetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"kat/internal/online"
	"kat/internal/trace"
	"kat/internal/wire"
)

// replayResult is one closed-loop phase.
type replayResult struct {
	ops        int
	ingest     time.Duration // first POST -> last ack
	verified   time.Duration // first POST -> /drain returned
	segments   int64         // OnSegment calls between first POST and /drain return
	doc        online.VerdictDoc
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

// runtimeSample reads the allocation and CPU counters the per-layer runtime
// metrics are deltas of.
type runtimeSample struct{ alloc, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	val := func(v rtmetrics.Value) float64 {
		switch v.Kind() {
		case rtmetrics.KindUint64:
			return float64(v.Uint64())
		case rtmetrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{alloc: val(s[0].Value), gcCPU: val(s[1].Value), totalCPU: val(s[2].Value)}
}

// runConns runs fn once per connection concurrently and returns the first
// error.
func runConns(n int, fn func(c int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// replay sends every batch as fast as acknowledgments allow, one request in
// flight per connection, then drains the target.
func replay(t *target, clients []*conn, batches [][]batch, segCount *atomic.Int64) (replayResult, error) {
	var res replayResult
	for _, bs := range batches {
		for _, b := range bs {
			res.ops += b.ops
		}
	}
	lastAck := make([]time.Time, len(batches))
	rt0 := readRuntime()
	seg0 := segCount.Load()
	begin := time.Now()
	err := runConns(len(batches), func(c int) error {
		for _, b := range batches[c] {
			if _, err := clients[c].send(b); err != nil {
				return err
			}
		}
		lastAck[c] = time.Now()
		return nil
	})
	if err != nil {
		return res, err
	}
	ingestEnd := begin
	for _, at := range lastAck {
		if at.After(ingestEnd) {
			ingestEnd = at
		}
	}
	res.doc, err = drain(t.url)
	end := time.Now()
	if err != nil {
		return res, err
	}
	rt1 := readRuntime()
	res.ingest = ingestEnd.Sub(begin)
	res.verified = end.Sub(begin)
	res.segments = segCount.Load() - seg0
	res.allocBytes = rt1.alloc - rt0.alloc
	res.gcCPU = rt1.gcCPU - rt0.gcCPU
	res.totalCPU = rt1.totalCPU - rt0.totalCPU
	return res, nil
}

// segLog records every segment verdict's time and the key's running
// verified-op count, the raw material of verdict lag.
type segLog struct {
	keyIdx map[string]int
	epoch  time.Time
	mu     sync.Mutex
	cum    []int64
	recs   [][]segRec
}

type segRec struct {
	cum int64 // the key's running verified-op count after this verdict
	at  int64 // ns since epoch
}

func newSegLog(keys []string, epoch time.Time) *segLog {
	l := &segLog{keyIdx: map[string]int{}, epoch: epoch,
		cum: make([]int64, len(keys)), recs: make([][]segRec, len(keys))}
	for i, k := range keys {
		l.keyIdx[k] = i
	}
	return l
}

func (l *segLog) onSegment(v trace.SegmentVerdict) {
	at := int64(time.Since(l.epoch))
	i, ok := l.keyIdx[v.Key]
	if !ok {
		return
	}
	l.mu.Lock()
	l.cum[i] += int64(v.Ops)
	l.recs[i] = append(l.recs[i], segRec{cum: l.cum[i], at: at})
	l.mu.Unlock()
}

// liveResult is one open-loop phase.
type liveResult struct {
	ops      int
	acks     []float64 // per request, ms from due time to 200 (+Inf if refused)
	late     []float64 // per request, ms the send started after its due time
	lag      []weighted
	lagOps   int64
	cpu      time.Duration
	span     time.Duration // first due time -> last ack
	achieved float64       // ops / span
	doc      online.VerdictDoc
}

// weighted is a latency sample standing for count operations.
type weighted struct {
	v     float64
	count int64
}

// keyCum is one key a live request carried, with the key's running op
// count within the phase after that request.
type keyCum struct {
	key int
	end int64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// live sends the batches on a fixed schedule: connection c's request j is
// due when the operations before it, at c's share of the offered rate,
// have been sent. Each request is timed from its due time, so a stall
// charges every request it delays. Verdict lag is derived afterwards from
// the acknowledgment times and the segment log.
func live(t *target, clients []*conn, batches [][]batch, carried [][][]keyCum, rate float64,
	log *segLog, sent []int64) (liveResult, error) {
	var res liveResult
	connOps := make([]int, len(batches))
	for c, bs := range batches {
		for _, b := range bs {
			connOps[c] += b.ops
		}
		res.ops += connOps[c]
	}
	acks := make([][]time.Time, len(batches))
	lat := make([][]float64, len(batches))
	late := make([][]float64, len(batches))
	cpu0 := cpuTime()
	begin := time.Now().Add(time.Millisecond)
	err := runConns(len(batches), func(c int) error {
		connRate := rate * float64(connOps[c]) / float64(res.ops)
		acks[c] = make([]time.Time, len(batches[c]))
		cum := 0
		for j, b := range batches[c] {
			due := begin.Add(time.Duration(float64(cum) / connRate * 1e9))
			cum += b.ops
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			late[c] = append(late[c], ms(time.Since(due)))
			refused, err := clients[c].send(b)
			if err != nil {
				return err
			}
			acks[c][j] = time.Now()
			if refused > 0 {
				lat[c] = append(lat[c], math.Inf(1))
			} else {
				lat[c] = append(lat[c], ms(acks[c][j].Sub(due)))
			}
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	lastAck := begin
	for c := range acks {
		for _, a := range acks[c] {
			if a.After(lastAck) {
				lastAck = a
			}
		}
		res.acks = append(res.acks, lat[c]...)
		res.late = append(res.late, late[c]...)
	}
	drainBegin := time.Now()
	res.doc, err = drain(t.url)
	if err != nil {
		return res, err
	}
	res.cpu = cpuTime() - cpu0
	res.span = lastAck.Sub(begin)
	res.achieved = float64(res.ops) / res.span.Seconds()
	res.lag, res.lagOps = verdictLag(log, acks, carried, sent, drainBegin)
	return res, nil
}

// verdictLag matches every operation to the first segment verdict whose
// running per-key verified-op count covers it, and returns the time from
// the acknowledgment of the request that carried the operation to that
// verdict, for operations verified before /drain was called.
//
// A durable target also verifies the part of its recovered prefix that was
// still unverified at the crash, ahead of this phase's operations, so each
// key's phase operations are the last sent[key] of its verified-op total.
func verdictLag(log *segLog, acks [][]time.Time, carried [][][]keyCum, sent []int64,
	drainBegin time.Time) (samples []weighted, verifiedOps int64) {
	cutoff := int64(drainBegin.Sub(log.epoch))
	type ackRange struct {
		lo, hi int64 // phase-relative op numbers, 1-based, inclusive
		at     int64
	}
	perKey := make([][]ackRange, len(log.recs))
	for c := range carried {
		for j, kcs := range carried[c] {
			at := int64(acks[c][j].Sub(log.epoch))
			for _, kc := range kcs {
				lo := int64(1)
				if rs := perKey[kc.key]; len(rs) > 0 {
					lo = rs[len(rs)-1].hi + 1
				}
				perKey[kc.key] = append(perKey[kc.key], ackRange{lo: lo, hi: kc.end, at: at})
			}
		}
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	for k, ranges := range perKey {
		recs := log.recs[k]
		offset := max(0, log.cum[k]-sent[k])
		i := 0
	key:
		for _, r := range ranges {
			for m := r.lo; m <= r.hi; {
				pos := offset + m
				for i < len(recs) && recs[i].cum < pos {
					i++
				}
				if i == len(recs) || recs[i].at >= cutoff {
					break key
				}
				upto := min(r.hi, recs[i].cum-offset)
				n := upto - m + 1
				samples = append(samples, weighted{v: math.Max(0, float64(recs[i].at-r.at)/1e6), count: n})
				verifiedOps += n
				m = upto + 1
			}
		}
	}
	return samples, verifiedOps
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// liveCarried precomputes, per live request, which keys it carries and each
// key's running op count after it, plus every key's phase total.
func liveCarried(reqs [][][]wire.Op, keyIdx map[string]int) ([][][]keyCum, []int64, error) {
	sent := make([]int64, len(keyIdx))
	out := make([][][]keyCum, len(reqs))
	for c, rs := range reqs {
		out[c] = make([][]keyCum, len(rs))
		for j, ops := range rs {
			last := map[int]int{}
			for _, op := range ops {
				k, ok := keyIdx[op.Key]
				if !ok {
					return nil, nil, fmt.Errorf("key %q missing from the key index", op.Key)
				}
				sent[k]++
				if pos, seen := last[k]; seen {
					out[c][j][pos].end = sent[k]
					continue
				}
				last[k] = len(out[c][j])
				out[c][j] = append(out[c][j], keyCum{key: k, end: sent[k]})
			}
		}
	}
	return out, sent, nil
}

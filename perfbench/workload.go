package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"kat/internal/generator"
	"kat/internal/history"
	"kat/internal/trace"
	"kat/internal/wire"
)

// workload is one traffic mix: how its trace is generated from the seed, how
// it is encoded on the wire, and which server topology verifies it.
type workload struct {
	name string
	// ops is the trace length in operations.
	ops int
	// wire selects the binary wire codec for request bodies (text
	// otherwise).
	wire bool
	// props is the verified property set.
	props trace.PropertySet
	// cluster runs three members behind a cluster router.
	cluster bool
	// durable runs one WAL-backed node with checkpoints and a keyspace
	// lifecycle; each phase starts from a recovered un-drained prefix.
	durable bool
	// prefixOps is the un-drained prefix a durable server recovers before a
	// phase starts (only the remainder is sent while timing).
	prefixOps int
	// liveRate is the live phase's offered load in operations per second,
	// set by measurement below the closed-loop throughput.
	liveRate float64
	// liveOps is how much of the trace after the prefix the live phase
	// sends: all of it, except where a longer replay phase is wanted.
	liveOps int
	// liveBatch is the live phase's request size: small enough that one
	// live phase has at least a thousand requests, so its p99 has ten
	// samples beyond it.
	liveBatch int
	// gen builds the trace of n operations in arrival order.
	gen func(seed int64, n int) []wire.Op
}

// replayBatchOps is the replay phase's request size, kavgen -replay's
// default.
const replayBatchOps = 512

// retireTTL is durable-churn-wire's retirement TTL in trace-time units. A
// lifetime spans well under 600 units and a recycled name is reborn 256
// births (about 18,000 units) later, so names retire between lifetimes and
// are re-admitted.
const retireTTL = 1200

// phaseSpread bounds a key's random start offset in trace time: about a
// thousand of its operations, more than the span between two of its
// segment dispatches at the default horizon.
const phaseSpread = 2048

// checkpointEveryMs is the durable workload's checkpoint cadence in live
// phases. It is shorter than kavserve's 5s default so checkpoints land
// inside each phase.
const checkpointEveryMs = 400

var workloads = []*workload{
	{
		name: "uniform-text-k", ops: 320_000, liveOps: 320_000, props: trace.PropertySetK,
		liveRate: 120_000, liveBatch: 128,
		gen: func(seed int64, n int) []wire.Op {
			return keyedKAtomic(seed, 256, uniformCounts(256, n), 16)
		},
	},
	{
		name: "hotkey-wire-all", ops: 48_000, liveOps: 48_000, wire: true, props: trace.PropertySetAll,
		liveRate: 25_000, liveBatch: 32,
		gen: func(seed int64, n int) []wire.Op {
			return keyedKAtomic(seed, 64, zipfCounts(64, n, 1.2), 8)
		},
	},
	{
		name: "durable-churn-wire", ops: 256_000, liveOps: 80_000, wire: true, props: trace.PropertySetK,
		durable: true, prefixOps: 16_000, liveRate: 24_000, liveBatch: 64,
		gen: churn,
	},
	{
		name: "cluster3-wire-k", ops: 160_000, liveOps: 160_000, wire: true, props: trace.PropertySetK,
		cluster: true, liveRate: 60_000, liveBatch: 128,
		gen: func(seed int64, n int) []wire.Op {
			return keyedKAtomic(seed, 64, uniformCounts(64, n), 16)
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

func uniformCounts(keys, total int) []int {
	counts := make([]int, keys)
	for i := range counts {
		counts[i] = total / keys
	}
	return counts
}

// zipfCounts gives key rank r the expected Zipf share total/(r+1)^s/H of the
// operations (rounded, the remainder to the hottest key). Unlike
// generator.ZipfCounts it draws nothing, so the skew, and with it the run's
// cost, is the same for every seed.
func zipfCounts(keys, total int, s float64) []int {
	var h float64
	for r := 0; r < keys; r++ {
		h += 1 / math.Pow(float64(r+1), s)
	}
	counts := make([]int, keys)
	sum := 0
	for r := range counts {
		counts[r] = max(1, int(math.Round(float64(total)/math.Pow(float64(r+1), s)/h)))
		sum += counts[r]
	}
	counts[0] += total - sum
	return counts
}

// keyedKAtomic builds one KAtomic register per key (concurrency 3,
// staleness depth 1, so 2-atomic by construction) with the given op counts,
// and injects reads two writes staler into every injectEvery-th key (never
// the first, which is the hottest under Zipf skew), so those keys are
// violating at k=2 and the violation path runs. Each key's
// timestamps are stretched so every key spans the whole trace: a key with
// fewer operations is a key with a lower request rate, not one that goes
// quiet early. Every key also starts at a random phase, so keys are not in
// lockstep: real keys do not all close their segments at the same instant.
func keyedKAtomic(seed int64, keys int, counts []int, injectEvery int) []wire.Op {
	maxCount := 0
	for _, c := range counts {
		maxCount = max(maxCount, c)
	}
	rng := rand.New(rand.NewSource(seed))
	var out []wire.Op
	for i := 0; i < keys; i++ {
		if counts[i] == 0 {
			continue
		}
		h := generator.KAtomic(generator.Config{
			Seed: seed*1_000_003 + int64(i), Ops: counts[i],
			Concurrency: 3, StalenessDepth: 1,
		})
		if i%injectEvery == injectEvery-1 {
			h = generator.InjectStaleness(h, seed*7919+int64(i), 0.02, 2)
		}
		stretch := int64(maxCount / counts[i])
		phase := rng.Int63n(phaseSpread)
		key := fmt.Sprintf("key-%04d", i)
		for _, op := range h.Ops {
			op.Start = op.Start*stretch + phase
			op.Finish = op.Finish*stretch + phase
			out = append(out, wire.Op{Key: key, Op: op})
		}
	}
	sortArrival(out)
	return out
}

// churn is the keyspace-lifecycle trace: short key lifetimes born at a fixed
// cadence over a recycled pool of 256 names, so names retire and are
// re-admitted.
func churn(seed int64, total int) []wire.Op {
	const perLife = 32
	ops := generator.Churn(generator.ChurnConfig{
		Seed: seed, Lifetimes: total / perLife, OpsPerLifetime: perLife,
		Concurrency: 2, NamePool: 256,
	})
	out := make([]wire.Op, len(ops))
	for i, kop := range ops {
		out[i] = wire.Op{Key: kop.Key, Op: kop.Op}
	}
	return out
}

// sortArrival orders operations by (start, key, ID), the arrival order of
// an operation log (trace.WriteArrivalOrder's order).
func sortArrival(ops []wire.Op) {
	sort.Slice(ops, func(i, j int) bool {
		a, b := ops[i], ops[j]
		if a.Op.Start != b.Op.Start {
			return a.Op.Start < b.Op.Start
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Op.ID < b.Op.ID
	})
}

// batch is one pre-encoded /ingest request; its body lives in the run's
// arena.
type batch struct {
	body []byte
	ops  int
}

// connOf routes a key to a client connection by FNV-1a hash, as
// kavgen -replay does, so each key's operations travel in order on one
// connection.
func connOf(key string, conns int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(conns))
}

// requests partitions ops over conns connections by key hash and cuts each
// connection's stream into requests of batchOps operations.
func requests(ops []wire.Op, conns, batchOps int) [][][]wire.Op {
	streams := make([][]wire.Op, conns)
	for _, op := range ops {
		c := connOf(op.Key, conns)
		streams[c] = append(streams[c], op)
	}
	out := make([][][]wire.Op, conns)
	for c, stream := range streams {
		for off := 0; off < len(stream); off += batchOps {
			out[c] = append(out[c], stream[off:min(off+batchOps, len(stream))])
		}
	}
	return out
}

// encodeAll encodes every request body up front, into the arena, so the
// server only ever receives generated bytes.
func encodeAll(a *arena, reqs [][][]wire.Op, useWire bool) ([][]batch, error) {
	out := make([][]batch, len(reqs))
	for c, rs := range reqs {
		for _, ops := range rs {
			body, err := encodeBody(ops, useWire)
			if err != nil {
				return nil, err
			}
			if body, err = a.copy(body); err != nil {
				return nil, err
			}
			out[c] = append(out[c], batch{body: body, ops: len(ops)})
		}
	}
	return out, nil
}

// encodeBody renders ops as one request body: a self-contained wire frame,
// or newline-terminated keyed text.
func encodeBody(ops []wire.Op, useWire bool) ([]byte, error) {
	if useWire {
		return wire.EncodeSelfContained(nil, ops, false)
	}
	return traceText(ops), nil
}

// traceText renders ops as one keyed text trace in the given order.
func traceText(ops []wire.Op) []byte {
	var text []byte
	for _, op := range ops {
		text = trace.AppendKeyedOpText(text, op.Key, op.Op)
	}
	return text
}

// byKey groups operations into per-key histories, preserving arrival order.
func byKey(ops []wire.Op) (keys []string, hs map[string][]history.Operation) {
	hs = map[string][]history.Operation{}
	for _, op := range ops {
		if _, ok := hs[op.Key]; !ok {
			keys = append(keys, op.Key)
		}
		hs[op.Key] = append(hs[op.Key], op.Op)
	}
	sort.Strings(keys)
	return keys, hs
}

// Command perfbench is the repository's end-to-end benchmark: it drives an
// in-process kavserve (online.Server, or a cluster.Router in front of three
// members) over loopback TCP with its own load generator, checks every
// drained verdict against the offline checker, and prints each metric by
// name with its unit. The last line of standard output is one JSON object
// with the run's result.
//
//	bash perfbench/run.sh --workload uniform-text-k --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads, the metrics and what
// each layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"kat/internal/trace"
	"kat/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	out      string
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans and the layer pass")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for spans and durable data")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be >= 1")
	}
	o.traced = *traceFlag != 0
	return o, nil
}

// bench holds one run's generated inputs and accumulated measurements.
type bench struct {
	w     *workload
	conns int

	total   int       // trace length in operations
	ops     []wire.Op // whole trace in arrival order, kept for the layer pass
	keys    []string
	keyIdx  map[string]int
	replayB [][]batch    // what the replay phase sends (after a durable prefix)
	liveB   [][]batch    // what the live phase sends, in smaller requests
	prefixB [2][][]batch // durable: the prefix, halves either side of a checkpoint
	carried [][][]keyCum
	sent    []int64
	ref     map[string]refVerdict // verdicts after the replay phase
	refLive map[string]refVerdict // verdicts after the live phase
	bodies  arena                 // every request body; released by close

	runDir   string
	pristine string // durable: the recovered prefix every phase starts from
	dirs     int

	setups    []time.Duration
	recovers  []time.Duration
	ckptTimes []time.Duration
	ckptBytes []int64
	attempted int64
	failed    int64
}

// prepare generates the workload's inputs from the seed, encodes every
// request body and computes the reference verdicts. The operations
// themselves are kept only for the layer pass (keepOps). Call close when
// done.
func prepare(w *workload, seed int64, conns int, keepOps bool) (b *bench, err error) {
	b = &bench{w: w, conns: conns}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	ops := w.gen(seed, w.ops)
	b.total = len(ops)
	b.keys, _ = byKey(ops)
	b.keyIdx = map[string]int{}
	for i, k := range b.keys {
		b.keyIdx[k] = i
	}
	rest := ops[w.prefixOps:]
	if b.replayB, err = encodeAll(&b.bodies, requests(rest, conns, replayBatchOps), w.wire); err != nil {
		return nil, err
	}
	live := requests(rest[:w.liveOps], conns, w.liveBatch)
	if b.liveB, err = encodeAll(&b.bodies, live, w.wire); err != nil {
		return nil, err
	}
	if b.carried, b.sent, err = liveCarried(live, b.keyIdx); err != nil {
		return nil, err
	}
	prefix := ops[:w.prefixOps]
	for i, part := range [][]wire.Op{prefix[:len(prefix)/2], prefix[len(prefix)/2:]} {
		if b.prefixB[i], err = encodeAll(&b.bodies, requests(part, conns, replayBatchOps), w.wire); err != nil {
			return nil, err
		}
	}
	if b.ref, err = reference(traceText(ops), w.props); err != nil {
		return nil, err
	}
	b.refLive = b.ref
	if end := w.prefixOps + w.liveOps; end < len(ops) {
		if b.refLive, err = reference(traceText(ops[:end]), w.props); err != nil {
			return nil, err
		}
	}
	if keepOps {
		b.ops = ops
	}
	return b, nil
}

// close releases the request bodies.
func (b *bench) close() { b.bodies.release() }

// roundResult is one replay phase and one live phase, each on a fresh
// target.
type roundResult struct {
	traced   bool
	replay   replayResult
	live     liveResult
	retained float64 // MB
	rec      *recorder
}

func run(args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	conns := min(2, runtime.NumCPU())
	b, err := prepare(w, o.seed, conns, o.traced)
	if err != nil {
		return err
	}
	defer b.close()
	b.runDir, err = filepath.Abs(filepath.Join(o.out, "run", fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(b.runDir)
	if w.durable {
		if err := b.makePristine(); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "perfbench: workload %s seed %d: %d ops, %d keys, %d connection(s), live rate %.0f ops/s\n",
		w.name, o.seed, b.total, len(b.keys), conns, w.liveRate)

	var layers map[string]float64
	if o.traced {
		if layers, err = b.layerPass(); err != nil {
			return fmt.Errorf("layer pass: %w", err)
		}
		b.ops = nil // off the heap before the measured rounds
	}
	// Set-up samples beyond the two fresh targets every round builds (and
	// the setupsPerRound more each round adds), so setup_s is a median of
	// many spread over the whole run.
	if err := b.setupOnly(setupsUpFront); err != nil {
		return err
	}
	// Warm-up: one replay phase whose timings are discarded (its verdicts
	// are still checked).
	if _, _, err := b.replayPhase(nil); err != nil {
		return err
	}

	var rounds []roundResult
	begin := time.Now()
	budget := time.Duration(o.seconds) * time.Second
	minRounds := 1
	if o.traced {
		minRounds = 2
	}
	for i := 0; ; i++ {
		elapsed := time.Since(begin)
		if i >= minRounds && elapsed+elapsed/time.Duration(i) > budget {
			break
		}
		traced := o.traced && i%2 == 1
		rr, err := b.round(traced)
		if err != nil {
			return err
		}
		rounds = append(rounds, rr)
		if err := b.setupOnly(setupsPerRound); err != nil {
			return err
		}
	}

	var plain, tracedRounds []roundResult
	for _, r := range rounds {
		if r.traced {
			tracedRounds = append(tracedRounds, r)
		} else {
			plain = append(plain, r)
		}
	}
	e2e := b.endToEnd(plain)
	fmt.Fprintf(stdout, "perfbench: %d measured round(s) in %.1fs\n", len(rounds), time.Since(begin).Seconds())
	b.report(stdout, "untraced", plain, e2e)
	if kept := len(b.keptUp(plain)); 2*kept < len(plain) {
		return fmt.Errorf("the live phase fell below %.0f%% of the offered %.0f ops/s in %d of %d untraced rounds; its figures would not measure the offered load",
			100*keptUpShare, b.w.liveRate, len(plain)-kept, len(plain))
	}
	result := map[string]metric{}
	if o.traced {
		te2e := b.endToEnd(tracedRounds)
		b.report(stdout, "traced", tracedRounds, te2e)
		overhead := 100 * (e2e["verified_ops_per_s"].Value/te2e["verified_ops_per_s"].Value - 1)
		fmt.Fprintf(stdout, "perfbench: tracing overhead on verified_ops_per_s: %.1f%% (untraced %.0f vs traced %.0f ops/s)\n",
			overhead, e2e["verified_ops_per_s"].Value, te2e["verified_ops_per_s"].Value)
		for k, v := range layers {
			result[k] = metric{v, layerUnit(k)}
		}
		for k, v := range b.perLayer(tracedRounds) {
			result[k] = metric{v, layerUnit(k)}
		}
		result["tracing.overhead_pct"] = metric{overhead, "%"}
		result["loadgen.ack_p99_ms"] = metric{b.ackP99(plain), "ms"}
		for _, name := range perLayerNames {
			if _, ok := result[name]; !ok {
				result[name] = metric{0, layerUnit(name)}
			}
		}
		printMetrics(stdout, "per-layer", result)
		path := filepath.Join(o.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
		last := tracedRounds[len(tracedRounds)-1]
		if err := last.rec.writeJSONL(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(stdout, "perfbench: spans of the last traced round written to %s\n", path)
	} else {
		result = e2e
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, b.attempted, b.failed, result})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newDataDir returns a fresh durable data directory holding a copy of the
// pristine prefix (empty when there is none yet).
func (b *bench) newDataDir() (string, error) {
	if !b.w.durable {
		return "", nil
	}
	b.dirs++
	dir := filepath.Join(b.runDir, fmt.Sprintf("data-%d", b.dirs))
	if b.pristine == "" {
		return dir, nil
	}
	return dir, copyDir(b.pristine, dir)
}

// opts configures a fresh target. Only live phases take periodic
// checkpoints: a checkpoint freezes ingest while it rotates the WAL, so on a
// shared disk it made replay throughput swing with the disk (a 10-seed
// spread near half the median); in the live phase its stalls land in the
// ack tail, where the prediction table expects them.
func (b *bench) opts(rec *recorder, onSegment func(trace.SegmentVerdict), checkpoints bool) (serverOpts, error) {
	dir, err := b.newDataDir()
	o := serverOpts{rec: rec, onSegment: onSegment, dataDir: dir}
	if b.w.durable && checkpoints {
		o.checkpointEvery = checkpointEveryMs * time.Millisecond
	}
	return o, err
}

// startTarget builds a fresh target and records its set-up time.
func (b *bench) startTarget(o serverOpts) (*target, error) {
	t, setup, err := start(b.w, o)
	if err != nil {
		return nil, err
	}
	b.setups = append(b.setups, setup)
	if b.w.durable {
		b.recovers = append(b.recovers, t.recover)
	}
	return t, nil
}

// finish closes a phase's target and clients, folding in their counts.
func (b *bench) finish(t *target, clients []*conn, dir string) error {
	for _, c := range clients {
		c.closeIdle()
		b.attempted += c.attempted
		b.failed += c.failed
	}
	err := t.close()
	t.ckptMu.Lock()
	b.ckptTimes = append(b.ckptTimes, t.ckptTimes...)
	b.ckptBytes = append(b.ckptBytes, t.ckptBytes...)
	t.ckptMu.Unlock()
	if dir != "" {
		os.RemoveAll(dir)
	}
	return err
}

func (b *bench) clients(url string, rec *recorder) []*conn {
	cs := make([]*conn, b.conns)
	for i := range cs {
		cs[i] = newConn(url, b.w.wire, rec)
	}
	return cs
}

// Set-up samples taken on their own: before the measured rounds, and after
// each round.
const (
	setupsUpFront  = 16
	setupsPerRound = 2
)

// setupOnly builds and closes n targets, for set-up time samples. Each
// starts right after a collection, as every phase's target does.
func (b *bench) setupOnly(n int) error {
	for i := 0; i < n; i++ {
		o, err := b.opts(nil, nil, false)
		if err != nil {
			return err
		}
		runtime.GC()
		t, err := b.startTarget(o)
		if err != nil {
			return err
		}
		if err := b.finish(t, nil, o.dataDir); err != nil {
			return err
		}
	}
	return nil
}

// makePristine writes the durable workload's un-drained prefix: half of
// it, a checkpoint, the other half into the WAL, then a crash. Every phase
// recovers a copy, so setup_s times checkpoint restore plus WAL replay.
func (b *bench) makePristine() error {
	dir := filepath.Join(b.runDir, "pristine")
	t, _, err := start(b.w, serverOpts{dataDir: dir})
	if err != nil {
		return err
	}
	for i, bs := range b.prefixB {
		clients := b.clients(t.url, nil)
		err = runConns(len(bs), func(c int) error {
			for _, bt := range bs[c] {
				if _, err := clients[c].send(bt); err != nil {
					return err
				}
			}
			return nil
		})
		for _, c := range clients {
			c.closeIdle()
		}
		if err != nil {
			t.crash()
			return fmt.Errorf("durable prefix: %w", err)
		}
		if i == 0 {
			if err := t.mgr.Checkpoint(); err != nil {
				t.crash()
				return fmt.Errorf("durable prefix checkpoint: %w", err)
			}
		}
	}
	if err := t.crash(); err != nil {
		return err
	}
	b.pristine = dir
	return nil
}

// replayPhase runs one closed-loop phase on a fresh target, checks its
// drained verdicts, and measures retained heap: live heap after the drain
// minus live heap before the target was built, both after two forced GCs.
func (b *bench) replayPhase(rec *recorder) (res replayResult, retainedMB float64, err error) {
	heap0 := liveHeap()
	var segs atomic.Int64
	o, err := b.opts(rec, rec.onSegment(func(trace.SegmentVerdict) { segs.Add(1) }), false)
	if err != nil {
		return res, 0, err
	}
	t, err := b.startTarget(o)
	if err != nil {
		return res, 0, err
	}
	clients := b.clients(t.url, rec)
	res, err = replay(t, clients, b.replayB, &segs)
	if err == nil {
		err = checkDoc(res.doc, b.ref)
	}
	if err == nil {
		retainedMB = float64(int64(liveHeap())-int64(heap0)) / (1 << 20)
		runtime.KeepAlive(t)
	}
	if ferr := b.finish(t, clients, o.dataDir); err == nil {
		err = ferr
	}
	if err != nil {
		return res, 0, fmt.Errorf("replay phase: %w", err)
	}
	return res, retainedMB, nil
}

// round runs one replay phase and one live phase, each on a fresh target.
func (b *bench) round(traced bool) (roundResult, error) {
	rr := roundResult{traced: traced}
	if traced {
		rr.rec = newRecorder()
	}
	var err error
	if rr.replay, rr.retained, err = b.replayPhase(rr.rec); err != nil {
		return rr, err
	}

	// Start every live phase right after a collection, so where the
	// collector's cycles fall within the phase does not vary by round.
	runtime.GC()
	log := newSegLog(b.keys, time.Now())
	o, err := b.opts(rr.rec, rr.rec.onSegment(log.onSegment), true)
	if err != nil {
		return rr, err
	}
	t, err := b.startTarget(o)
	if err != nil {
		return rr, err
	}
	clients := b.clients(t.url, rr.rec)
	rr.live, err = live(t, clients, b.liveB, b.carried, b.w.liveRate, log, b.sent)
	if err == nil {
		err = checkDoc(rr.live.doc, b.refLive)
	}
	if ferr := b.finish(t, clients, o.dataDir); err == nil {
		err = ferr
	}
	if err != nil {
		return rr, fmt.Errorf("live phase: %w", err)
	}
	return rr, nil
}

// liveHeap is the live heap after two forced collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// keptUpShare is the share of the offered rate a live phase must achieve
// to count as an open-loop measurement at that rate.
const keptUpShare = 0.98

// keptUp returns the rounds whose live phase achieved the offered rate. The
// others fell behind, so their latencies measure a backlog, not the
// offered load: no live-phase figure is taken from them, and a run where
// they are the majority fails.
func (b *bench) keptUp(rounds []roundResult) []roundResult {
	var kept []roundResult
	for _, r := range rounds {
		if r.live.achieved >= keptUpShare*b.w.liveRate {
			kept = append(kept, r)
		}
	}
	return kept
}

// endToEnd computes the end-to-end metrics over a set of rounds. Every
// figure is a median across rounds: throughputs and retained heap per
// replay phase, and the latency percentiles of each live phase that kept
// up with its offered rate (every round has thousands of requests, so its
// p99 has tens of samples beyond it). A median across rounds keeps one
// round that a collection or a scheduler stall hit from setting the run's
// tail. CPU per op pools the same live phases.
func (b *bench) endToEnd(rounds []roundResult) map[string]metric {
	var verified, ingest, retained, ack50, lag50, lag99 []float64
	var cpu time.Duration
	liveOps := 0
	for _, r := range rounds {
		verified = append(verified, float64(r.replay.ops)/r.replay.verified.Seconds())
		ingest = append(ingest, float64(r.replay.ops)/r.replay.ingest.Seconds())
		retained = append(retained, r.retained)
	}
	for _, r := range b.keptUp(rounds) {
		ack50 = append(ack50, finite(percentile(r.live.acks, 0.50)))
		lag50 = append(lag50, weightedPercentile(r.live.lag, 0.50))
		lag99 = append(lag99, weightedPercentile(r.live.lag, 0.99))
		cpu += r.live.cpu
		liveOps += r.live.ops
	}
	var setups []float64
	for _, d := range b.setups {
		setups = append(setups, d.Seconds())
	}
	accepted := 1.0
	if b.attempted > 0 {
		accepted = 1 - float64(b.failed)/float64(b.attempted)
	}
	return map[string]metric{
		"verified_ops_per_s": {median(verified), "1/s"},
		"ingest_ops_per_s":   {median(ingest), "1/s"},
		"ack_p50_ms":         {median(ack50), "ms"},
		"lag_p50_ms":         {median(lag50), "ms"},
		"lag_p99_ms":         {median(lag99), "ms"},
		"cpu_us_per_op":      {float64(cpu.Microseconds()) / float64(max(liveOps, 1)), "us"},
		"retained_mb":        {median(retained), "MB"},
		"setup_s":            {median(setups), "s"},
		"accepted_op_ratio":  {accepted, "ratio"},
	}
}

// ackP99 is the median across kept-up rounds of each live phase's p99
// acknowledgment latency. It is printed on every run but gated only as a
// per-layer figure: on a 2-processor virtual machine it swings with the
// hypervisor's steal time (a 10-seed spread of 0.27 to 0.58 of the median,
// more than the largest bound the benchmark may set).
func (b *bench) ackP99(rounds []roundResult) float64 {
	var p99 []float64
	for _, r := range b.keptUp(rounds) {
		p99 = append(p99, finite(percentile(r.live.acks, 0.99)))
	}
	return median(p99)
}

// unbounded stands in for an infinite latency (a refused request) in the
// JSON result, which cannot carry infinities.
const unbounded = 1e12

func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return unbounded
	}
	return v
}

// percentile is the nearest-rank p-quantile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// weightedPercentile is the nearest-rank p-quantile of weighted samples.
func weightedPercentile(ws []weighted, p float64) float64 {
	if len(ws) == 0 {
		return 0
	}
	s := append([]weighted(nil), ws...)
	sort.Slice(s, func(i, j int) bool { return s[i].v < s[j].v })
	var total int64
	for _, w := range s {
		total += w.count
	}
	rank := int64(math.Ceil(p * float64(total)))
	var cum int64
	for _, w := range s {
		cum += w.count
		if cum >= rank {
			return w.v
		}
	}
	return s[len(s)-1].v
}

// report prints the end-to-end metrics of a set of rounds with their
// sample counts and the open-loop validity check.
func (b *bench) report(out io.Writer, label string, rounds []roundResult, e2e map[string]metric) {
	var acks, reqs int
	var lagOps int64
	var worstLate float64
	kept := b.keptUp(rounds)
	for _, r := range kept {
		reqs += len(r.live.acks)
		acks += r.live.ops
		lagOps += r.live.lagOps
	}
	for _, r := range rounds {
		worstLate = math.Max(worstLate, percentile(r.live.late, 0.99))
	}
	fmt.Fprintf(out, "perfbench: %s: %d round(s); ack samples %d requests (%d ops); lag samples %d ops verified before /drain\n",
		label, len(rounds), reqs, acks, lagOps)
	state := "valid in every round"
	if len(kept) < len(rounds) {
		state = fmt.Sprintf("INVALID in %d of %d rounds (achieved ingest fell below the offered rate; left out of the live figures)",
			len(rounds)-len(kept), len(rounds))
	}
	fmt.Fprintf(out, "perfbench: %s: live phase %s (offered %.0f ops/s; generator late p99 %.3f ms)\n",
		label, state, b.w.liveRate, worstLate)
	if b.attempted > 0 {
		fmt.Fprintf(out, "perfbench: failed_op_ratio %.6f (%d of %d attempted ops in refused attempts)\n",
			float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	}
	fmt.Fprintf(out, "perfbench: %s: ack_p99_ms %.6g ms (printed, not in the result line; see README)\n", label, b.ackP99(rounds))
	printMetrics(out, label, e2e)
}

func printMetrics(out io.Writer, label string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-9s %-32s %16.6g %s\n", label, k, ms[k].Value, ms[k].Unit)
	}
}

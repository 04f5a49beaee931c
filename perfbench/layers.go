package main

import (
	"bytes"
	"io"
	"sort"
	"time"

	"kat/internal/core"
	"kat/internal/delta"
	"kat/internal/history"
	"kat/internal/regularity"
	"kat/internal/trace"
	"kat/internal/wire"
	"kat/internal/zone"
)

// layerReps is how often each layer-pass measurement repeats; the median
// is reported.
const layerReps = 3

// layerPass replays the run's generated operations through the public
// layer functions in pipeline order, timing each layer's calls alone:
// parse or decode of the request bodies, session append, per-segment
// prepare and per-property checks (segments cut at safe cuts, batched like
// the streaming engine's minimum segment size), plus the two offline
// anchors and, on the lifecycle workload, retire=on against retire=off.
func (b *bench) layerPass() (map[string]float64, error) {
	m := map[string]float64{}
	n := 0.0
	for _, bs := range b.replayB {
		for _, bt := range bs {
			n += float64(bt.ops)
		}
	}
	var err error
	if b.w.wire {
		m["wire.decode_ns_per_op"], err = medianNs(n, func() error { return b.decodeBodies() })
	} else {
		m["trace.parse_ns_per_op"], err = medianNs(n, func() error { return b.parseBodies() })
	}
	if err != nil {
		return nil, err
	}
	all := requests(b.ops, b.conns, replayBatchOps)
	var appendNs []float64
	for r := 0; r < layerReps; r++ {
		d, err := appendAll(all, b.w.props, b.w.durable, true)
		if err != nil {
			return nil, err
		}
		appendNs = append(appendNs, float64(d)/float64(len(b.ops)))
	}
	m["trace.append_ns_per_op"] = median(appendNs)

	seg := b.segmentPass()
	for k, v := range seg {
		m[k] = v
	}

	text := traceText(b.ops)
	m["trace.stream_ns_per_op"], err = medianNs(float64(len(b.ops)), func() error {
		_, _, err := trace.StreamVerdictsByKey(bytes.NewReader(text), core.Options{}, trace.StreamOptions{})
		return err
	})
	if err != nil {
		return nil, err
	}
	tr := trace.New()
	for _, op := range b.ops {
		tr.Add(op.Key, op.Op)
	}
	m["core.mono_ns_per_op"], _ = medianNs(float64(len(b.ops)), func() error {
		trace.SmallestKByKeyParallel(tr, core.Options{}, 1)
		return nil
	})

	if b.w.durable {
		for _, retire := range []bool{true, false} {
			var ns []float64
			for r := 0; r < layerReps; r++ {
				d, err := appendAll(all, b.w.props, retire, false)
				if err != nil {
					return nil, err
				}
				ns = append(ns, float64(d)/float64(len(b.ops)))
			}
			if retire {
				m["trace.retire_on_ns_per_op"] = median(ns)
			} else {
				m["trace.retire_off_ns_per_op"] = median(ns)
			}
		}
	}
	return m, nil
}

// medianNs times fn layerReps times and returns the median ns per op.
func medianNs(ops float64, fn func() error) (float64, error) {
	var ns []float64
	for r := 0; r < layerReps; r++ {
		begin := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ns = append(ns, float64(time.Since(begin))/ops)
	}
	return median(ns), nil
}

// parseBodies runs trace.ParseStreamBytes over every text request body.
func (b *bench) parseBodies() error {
	for _, bs := range b.replayB {
		for _, bt := range bs {
			if err := trace.ParseStreamBytes(bytes.NewReader(bt.body), func([]byte, history.Operation) error {
				return nil
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// decodeBodies runs wire.Decoder.Next over every binary request body.
func (b *bench) decodeBodies() error {
	dec := wire.NewDecoder(nil)
	for _, bs := range b.replayB {
		for _, bt := range bs {
			dec.Reset(bytes.NewReader(bt.body))
			for {
				if _, err := dec.Next(); err == io.EOF {
					break
				} else if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// appendAll feeds the batches round-robin across connections into a fresh
// session with Session.AppendBatch. With appendOnly it returns the time
// inside AppendBatch alone; otherwise the whole ingest-and-flush.
func appendAll(all [][][]wire.Op, props trace.PropertySet, retire, appendOnly bool) (time.Duration, error) {
	sopts := trace.StreamOptions{Properties: props}
	if retire {
		sopts.RetireTTL = retireTTL
	}
	sess := trace.NewSmallestKSession(core.Options{Memo: core.NewMemo()}, sopts)
	var busy time.Duration
	begin := time.Now()
	for j := 0; ; j++ {
		more := false
		for c := range all {
			if j >= len(all[c]) {
				continue
			}
			more = true
			t0 := time.Now()
			if _, err := sess.AppendBatch(all[c][j]); err != nil {
				return 0, err
			}
			busy += time.Since(t0)
		}
		if !more {
			break
		}
	}
	if err := sess.Flush(); err != nil {
		return 0, err
	}
	if appendOnly {
		return busy, nil
	}
	return time.Since(begin), nil
}

// segmentPass prepares each key's history, cuts it at safe cuts into
// segments of at least trace.DefaultMinSegmentOps operations, and times
// per segment: normalize+prepare, smallest k, and (when the workload
// verifies them) smallest Δ and the regularity check. Each is reported per
// trace operation, the median of layerReps passes.
func (b *bench) segmentPass() map[string]float64 {
	keys, hs := byKey(b.ops)
	var segs [][]history.Operation
	for _, k := range keys {
		h := &history.History{Ops: append([]history.Operation(nil), hs[k]...)}
		p, err := history.PrepareInPlace(history.NormalizeInPlace(h))
		if err != nil {
			// Anomalous keys are verified whole, like a segment that
			// never cuts.
			segs = append(segs, hs[k])
			continue
		}
		lo := 0
		for _, cut := range zone.Cuts(p) {
			if cut-lo >= trace.DefaultMinSegmentOps {
				segs = append(segs, p.H.Ops[lo:cut])
				lo = cut
			}
		}
		segs = append(segs, p.H.Ops[lo:])
	}
	withDelta := b.w.props.Has(trace.PropertyDelta)
	withReg := b.w.props.Has(trace.PropertyRegularity)
	var prep, smallK, dlt, reg []float64
	v := core.NewVerifier()
	n := float64(len(b.ops))
	for r := 0; r < layerReps; r++ {
		var tp, tk, td, tr time.Duration
		for _, ops := range segs {
			h := &history.History{Ops: append([]history.Operation(nil), ops...)}
			t0 := time.Now()
			p, err := history.PrepareInPlace(history.NormalizeInPlace(h))
			tp += time.Since(t0)
			if err != nil {
				continue
			}
			t0 = time.Now()
			v.SmallestKPrepared(p, core.Options{})
			tk += time.Since(t0)
			if withDelta {
				raw := &history.History{Ops: ops}
				t0 = time.Now()
				delta.Smallest(raw)
				td += time.Since(t0)
			}
			if withReg {
				t0 = time.Now()
				regularity.Check(p)
				tr += time.Since(t0)
			}
		}
		prep = append(prep, float64(tp)/n)
		smallK = append(smallK, float64(tk)/n)
		dlt = append(dlt, float64(td)/n)
		reg = append(reg, float64(tr)/n)
	}
	return map[string]float64{
		"history.prepare_ns_per_op":  median(prep),
		"core.smallest_k_ns_per_op":  median(smallK),
		"delta.smallest_ns_per_op":   median(dlt),
		"regularity.check_ns_per_op": median(reg),
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

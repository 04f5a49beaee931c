package main

import (
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// perLayerNames lists every per-layer metric a traced run prints; a layer
// that is not on a workload's path reports 0.
var perLayerNames = []string{
	"loadgen.ack_p99_ms", "loadgen.late_p99_ms", "loadgen.ack_samples", "loadgen.lag_samples",
	"loadgen.live_valid", "loadgen.failed_op_ratio",
	"online.ingest_ns_per_op", "online.drain_s",
	"trace.parse_ns_per_op", "trace.append_ns_per_op", "trace.segments",
	"trace.ops_per_segment", "trace.merges", "trace.peak_buffered_ops",
	"trace.retirements", "trace.readmissions", "trace.stream_ns_per_op",
	"trace.retire_on_ns_per_op", "trace.retire_off_ns_per_op",
	"wire.decode_ns_per_op",
	"history.prepare_ns_per_op",
	"core.smallest_k_ns_per_op", "core.segment_verdicts_per_s", "core.mono_ns_per_op",
	"delta.smallest_ns_per_op", "regularity.check_ns_per_op",
	"wal.write_ns_per_op", "wal.fsync_p50_ms", "wal.fsync_p99_ms",
	"wal.fsyncs_per_kop", "wal.bytes_per_op",
	"checkpoint.recover_s", "checkpoint.write_ms", "checkpoint.bytes",
	"cluster.route_ns_per_op", "cluster.self_ns_per_op",
	"cluster.hops_per_request", "cluster.forward_retries",
	"runtime.alloc_bytes_per_op", "runtime.gc_cpu_fraction",
	"tracing.overhead_pct",
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ns_per_op"):
		return "ns"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "bytes_per_op"), name == "checkpoint.bytes":
		return "B"
	case strings.HasSuffix(name, "_fraction"), strings.HasSuffix(name, "_ratio"):
		return "ratio"
	}
	return "count"
}

// perLayer computes the span- and document-derived per-layer metrics of
// the traced rounds: each round's value, then the median across rounds.
// Handler, hop and file spans cover both phases of a round, so their
// per-op figures divide by the operations both phases sent.
func (b *bench) perLayer(rounds []roundResult) map[string]float64 {
	per := map[string][]float64{}
	add := func(k string, v float64) { per[k] = append(per[k], v) }
	for _, r := range rounds {
		rec := r.rec
		ops := float64(r.replay.ops + r.live.ops)
		add("loadgen.late_p99_ms", percentile(r.live.late, 0.99))
		add("loadgen.ack_samples", float64(len(r.live.acks)))
		add("loadgen.lag_samples", float64(r.live.lagOps))
		valid := 0.0
		if r.live.achieved >= keptUpShare*b.w.liveRate {
			valid = 1
		}
		add("loadgen.live_valid", valid)

		add("online.ingest_ns_per_op", float64(sumDur(rec.byName(spanOnlineIngest)))/ops)
		front := spanOnlineDrain
		if b.w.cluster {
			front = spanRouterDrain
		}
		for _, s := range rec.byName(front) {
			add("online.drain_s", s.dur().Seconds())
		}

		st := r.replay.doc.Stats
		add("trace.segments", float64(st.Segments))
		if st.Segments > 0 {
			add("trace.ops_per_segment", float64(st.Ops)/float64(st.Segments))
		}
		add("trace.merges", float64(st.Merges))
		add("trace.peak_buffered_ops", float64(st.PeakBufferedOps))
		add("trace.retirements", float64(st.Retirements))
		add("trace.readmissions", float64(st.Readmissions))
		add("core.segment_verdicts_per_s", float64(r.replay.segments)/r.replay.verified.Seconds())
		add("runtime.alloc_bytes_per_op", r.replay.allocBytes/float64(r.replay.ops))
		if r.replay.totalCPU > 0 {
			add("runtime.gc_cpu_fraction", r.replay.gcCPU/r.replay.totalCPU)
		}

		if b.w.durable {
			writes := rec.byName(spanWALWrite)
			syncs := rec.byName(spanWALSync)
			var bytes int64
			for _, s := range writes {
				bytes += s.Count
			}
			add("wal.write_ns_per_op", float64(sumDur(writes))/ops)
			add("wal.bytes_per_op", float64(bytes)/ops)
			add("wal.fsyncs_per_kop", float64(len(syncs))/ops*1000)
			var syncMs []float64
			for _, s := range syncs {
				syncMs = append(syncMs, ms(s.dur()))
			}
			add("wal.fsync_p50_ms", percentile(syncMs, 0.50))
			add("wal.fsync_p99_ms", percentile(syncMs, 0.99))
		}

		if b.w.cluster {
			routes := rec.byName(spanRouterIngest)
			hops := rec.byName(spanHopIngest)
			children := map[int64][]span{}
			perMember := map[[2]int64]int{}
			peers := map[string]int64{}
			for _, h := range hops {
				children[h.Parent] = append(children[h.Parent], h)
				if _, ok := peers[h.Peer]; !ok {
					peers[h.Peer] = int64(len(peers))
				}
				perMember[[2]int64{h.Parent, peers[h.Peer]}]++
			}
			var self time.Duration
			for _, s := range routes {
				self += s.dur() - covered(s, children[s.ID])
			}
			retries := 0
			for _, n := range perMember {
				retries += n - 1
			}
			add("cluster.route_ns_per_op", float64(sumDur(routes))/ops)
			add("cluster.self_ns_per_op", float64(self)/ops)
			if len(routes) > 0 {
				add("cluster.hops_per_request", float64(len(hops))/float64(len(routes)))
			}
			add("cluster.forward_retries", float64(retries))
		}
	}
	out := map[string]float64{}
	for k, vs := range per {
		out[k] = median(vs)
	}
	if b.attempted > 0 {
		out["loadgen.failed_op_ratio"] = float64(b.failed) / float64(b.attempted)
	}
	if b.w.durable {
		var rec, ckpt, bytes []float64
		for _, d := range b.recovers {
			rec = append(rec, d.Seconds())
		}
		for _, d := range b.ckptTimes {
			ckpt = append(ckpt, ms(d))
		}
		for _, n := range b.ckptBytes {
			bytes = append(bytes, float64(n))
		}
		out["checkpoint.recover_s"] = median(rec)
		out["checkpoint.write_ms"] = median(ckpt)
		out["checkpoint.bytes"] = median(bytes)
	}
	return out
}

func sumDur(spans []span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		d += s.dur()
	}
	return d
}

// covered is how much of parent's interval the union of its children's
// intervals covers.
func covered(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for _, v := range ivs {
		if v.lo > end {
			total += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return time.Duration(total)
}

// copyDir copies the directory tree src into a fresh dst.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

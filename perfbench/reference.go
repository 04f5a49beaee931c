package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"kat/internal/core"
	"kat/internal/online"
	"kat/internal/trace"
)

// verdictK is the bound the servers judge statuses against (kavserve's
// default).
const verdictK = 2

// refVerdict is one key's expected final verdict, in the fields the service
// reports.
type refVerdict struct {
	ops        int
	smallestK  int
	status     string
	delta      int64
	irregular  int
	unsafe     int
	hasErr     bool
	properties trace.PropertySet
}

// reference runs the offline streaming checker over the whole trace with the
// workload's properties and derives each key's final verdict the way the
// service renders it (k floor of 1, status at k=2).
func reference(text []byte, props trace.PropertySet) (map[string]refVerdict, error) {
	kvs, _, err := trace.StreamVerdictsByKey(bytes.NewReader(text), core.Options{},
		trace.StreamOptions{Properties: props})
	if err != nil {
		return nil, fmt.Errorf("reference check: %w", err)
	}
	ref := make(map[string]refVerdict, len(kvs))
	for _, kv := range kvs {
		rv := refVerdict{
			ops: kv.Ops, smallestK: kv.SmallestK, delta: kv.SmallestDelta,
			irregular: kv.IrregularReads, unsafe: kv.UnsafeReads,
			hasErr: kv.Err != nil, properties: props,
		}
		if kv.Err == nil && rv.smallestK < 1 {
			rv.smallestK = 1
		}
		switch {
		case kv.Err != nil:
			rv.status = "error"
		case rv.smallestK > verdictK:
			rv.status = "violating"
		case kv.Saturated:
			rv.status = "indeterminate"
		default:
			rv.status = "ok"
		}
		ref[kv.Key] = rv
	}
	return ref, nil
}

// checkDoc compares a drained verdict document with the reference: the key
// sets must be equal, and every key must agree on its op count, smallest k,
// status at k=2, smallest Δ and unsafe/irregular read counts. A retired key
// is compared like any other: retirement folds its verdict, it must not
// change it.
func checkDoc(doc online.VerdictDoc, ref map[string]refVerdict) error {
	if !doc.Drained {
		return fmt.Errorf("verdict document is not drained")
	}
	var bad []string
	seen := 0
	for _, ks := range doc.Keys {
		rv, ok := ref[ks.Key]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: not in the reference", ks.Key))
			continue
		}
		seen++
		if diff := diffKey(ks, rv); diff != "" {
			bad = append(bad, ks.Key+": "+diff)
		}
	}
	if seen != len(ref) {
		var missing []string
		have := map[string]bool{}
		for _, ks := range doc.Keys {
			have[ks.Key] = true
		}
		for key := range ref {
			if !have[key] {
				missing = append(missing, key)
			}
		}
		sort.Strings(missing)
		bad = append(bad, fmt.Sprintf("%d reference key(s) missing, first %s", len(missing), missing[0]))
	}
	if len(bad) > 0 {
		if len(bad) > 5 {
			bad = append(bad[:5], fmt.Sprintf("... %d more", len(bad)-5))
		}
		return fmt.Errorf("verdicts differ from the offline checker: %s", strings.Join(bad, "; "))
	}
	return nil
}

func diffKey(ks online.KeyStatus, rv refVerdict) string {
	var d []string
	if ks.Ops != rv.ops {
		d = append(d, fmt.Sprintf("ops %d want %d", ks.Ops, rv.ops))
	}
	if ks.Status != rv.status {
		d = append(d, fmt.Sprintf("status %s want %s", ks.Status, rv.status))
	}
	if !rv.hasErr {
		if ks.SmallestK != rv.smallestK {
			d = append(d, fmt.Sprintf("smallest k %d want %d", ks.SmallestK, rv.smallestK))
		}
		if rv.properties.Has(trace.PropertyDelta) {
			if ks.Delta == nil || ks.Delta.SmallestDelta != rv.delta {
				d = append(d, fmt.Sprintf("smallest Δ %v want %d", ks.Delta, rv.delta))
			}
		}
		if rv.properties.Has(trace.PropertyRegularity) {
			if ks.Regularity == nil || ks.Regularity.IrregularReads != rv.irregular ||
				ks.Regularity.UnsafeReads != rv.unsafe {
				d = append(d, fmt.Sprintf("regularity %v want irregular %d unsafe %d",
					ks.Regularity, rv.irregular, rv.unsafe))
			}
		}
	}
	return strings.Join(d, ", ")
}

package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of vals by the nearest-rank
// rule on a sorted copy: the smallest value with at least q of the
// sample at or below it. Empty input gives 0.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// windowOps is how many consecutive timed ops make one window: about
// half a second at the seed's op rate, and at least twelve.
func (w workload) windowOps() int {
	n := int(w.opsPerS/2 + 0.5)
	if n < 12 {
		n = 12
	}
	return n
}

// cutWindows cuts ops 0..total into consecutive windows of n ops, as
// [lo, hi) index pairs; what is left over joins the last window.
func cutWindows(total, n int) [][2]int {
	count := total / n
	if count < 1 {
		count = 1
	}
	wins := make([][2]int, count)
	for i := range wins {
		wins[i] = [2]int{i * n, (i + 1) * n}
	}
	wins[count-1][1] = total
	return wins
}

// quietOps returns the op indices of the quietest third of opMS's
// windows (lowest mean op time; at least one window): the stretches of a
// segment the host interfered with least, which the traced pass reads
// its per-layer means from.
func quietOps(opMS []float64, n int) map[int]bool {
	wins := cutWindows(len(opMS), n)
	sort.SliceStable(wins, func(i, j int) bool {
		return mean(opMS[wins[i][0]:wins[i][1]]) < mean(opMS[wins[j][0]:wins[j][1]])
	})
	ops := make(map[int]bool)
	for _, win := range wins[:(len(wins)+2)/3] {
		for i := win[0]; i < win[1]; i++ {
			ops[i] = true
		}
	}
	return ops
}

// segmentMetrics derives one segment's numbers: the end-to-end metrics
// and the timings. A timing is that of the segment's best window: interference on this host comes in bursts of
// half a second to two seconds (README, "Noise"), so a whole segment of
// several seconds is almost never clean, while some half-second of it
// almost always is. A failed op has no latency and misses the limit; a
// failed segment (Err set) counts every op as failed.
func segmentMetrics(w workload, r segmentResult) map[string]float64 {
	ok := r.Ops - r.Failed
	if r.Err != "" {
		ok = 0
	}
	inSLO := 0
	for _, ms := range r.OpMS {
		if ms <= w.sloMS {
			inSLO++
		}
	}
	if inSLO > ok {
		inSLO = ok
	}
	m := map[string]float64{"setup_s": r.SetupS, "cpu.setup_s": r.SetupCPUS, "mem_peak_mb": r.MaxRSSMB}
	if r.Ops > 0 {
		m["egress_bytes_per_op"] = float64(r.EgressBytes) / float64(r.Ops)
		m["alloc_bytes_per_op"] = float64(r.AllocBytes) / float64(r.Ops)
		m["wall.slo_share"] = float64(inSLO) / float64(r.Ops)
		m["ok_share"] = float64(ok) / float64(r.Ops)
	}
	for i, win := range cutWindows(len(r.OpCPUMS), w.windowOps()) {
		if cpu := mean(r.OpCPUMS[win[0]:win[1]]); i == 0 || cpu < m["cpu.ms_per_op"] {
			m["cpu.ms_per_op"] = cpu
		}
	}
	if len(r.OpMS) == 0 || ok == 0 {
		return m
	}
	perOp := r.Samples / float64(len(r.OpMS))
	for i, win := range cutWindows(len(r.OpMS), w.windowOps()) {
		ops := r.OpMS[win[0]:win[1]]
		p50, p80 := percentile(ops, 0.50), percentile(ops, 0.80)
		rate := perOp * 1e3 / mean(ops)
		if i == 0 || p50 < m["wall.op_ms_p50"] {
			m["wall.op_ms_p50"] = p50
		}
		if i == 0 || p80 < m["wall.op_ms_p80"] {
			m["wall.op_ms_p80"] = p80
		}
		if i == 0 || rate > m["wall.samples_per_s"] {
			m["wall.samples_per_s"] = rate
		}
	}
	if w.serve && r.WallS > 0 {
		// Open loop: requests overlap, so the rate is what completed over
		// the whole timed span, not a sum of latencies.
		m["wall.samples_per_s"] = r.Samples / r.WallS
	}
	return m
}

// How a metric combines across a run's segments. Interference on a
// shared box only ever slows, so a timing, a rate or the share of ops
// inside the limit is its best segment; memory, allocation and the
// set-up time are the median segment (for setup_s the contract asks for
// the median); the rest must agree or be averaged.
type combine int

const (
	best      combine = iota // max if higher is better, min if lower
	middle                   // median segment
	identical                // every segment equal, or the run fails
	average                  // mean (failures anywhere count; serve's byte counts vary by a digit)
)

func combineRule(w workload, name string) combine {
	switch name {
	case "wall.samples_per_s", "wall.op_ms_p50", "wall.op_ms_p80", "wall.slo_share", "cpu.ms_per_op", "cpu.setup_s":
		return best
	case "mem_peak_mb", "alloc_bytes_per_op", "setup_s":
		return middle
	case "egress_bytes_per_op":
		if w.serve {
			// The version number printed in a reply grows a digit as the
			// capturer counts up, a byte or two per request.
			return average
		}
		return identical
	default:
		return average
	}
}

// aggregate folds the K segments' own metrics (segmentMetrics) into the
// run's value of each metric in specs and returns an error naming the
// first count that differs between segments.
func aggregate(w workload, specs []metricSpec, per []map[string]float64) (map[string]float64, error) {
	if len(per) == 0 {
		return nil, fmt.Errorf("%s: no segments", w.Name)
	}
	out := make(map[string]float64, len(specs))
	for _, spec := range specs {
		vals := make([]float64, len(per))
		for i, m := range per {
			vals[i] = m[spec.Name]
		}
		switch combineRule(w, spec.Name) {
		case best:
			v := vals[0]
			for _, x := range vals[1:] {
				if (spec.Better == higher) == (x > v) {
					v = x
				}
			}
			out[spec.Name] = v
		case middle:
			out[spec.Name] = percentile(vals, 0.50)
		case identical:
			for i, x := range vals[1:] {
				if x != vals[0] {
					return nil, fmt.Errorf("%s: %s differs between segments: %v in segment 0, %v in segment %d",
						w.Name, spec.Name, vals[0], x, i+1)
				}
			}
			out[spec.Name] = vals[0]
		case average:
			out[spec.Name] = mean(vals)
		}
	}
	return out, nil
}

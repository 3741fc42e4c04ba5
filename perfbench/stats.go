package main

import (
	"math"
	"slices"
	"time"
)

// quantile is the nearest-rank q-quantile of ds (0 for no samples).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[rank(len(s), q)]
}

// median is the middle value of xs (the mean of the two middle values for
// an even count; 0 for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank is the 0-based nearest-rank index of quantile q among n samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// roundRate is the throughput of a run: the median over its rounds of
// the round's operations divided by the round's duration. Every round of
// a workload holds the same operations, so this is the completion rate at
// the median round's pace. A few rounds stretched by a CPU stall from
// outside the process (the benchmark runs on small shared VMs) move it
// no more than they move the median latency.
func roundRate(rounds []round) float64 {
	rates := make([]float64, len(rounds))
	for i, r := range rounds {
		rates[i] = float64(r.ops) / r.dur.Seconds()
	}
	return median(rates)
}

// sumRate is the operations of every round divided by the rounds' summed
// duration: unlike roundRate it counts every slow round in full. The
// checks measure runs between rounds are not in it.
func sumRate(rounds []round) float64 {
	var ops int
	var dur time.Duration
	for _, r := range rounds {
		ops, dur = ops+r.ops, dur+r.dur
	}
	return float64(ops) / dur.Seconds()
}

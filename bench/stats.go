package main

import (
	"math"
	"sort"
	"time"
)

// sample is one statement completed inside a measured window.
type sample struct {
	class string
	end   time.Duration // completion time, from the window's start
	lat   time.Duration // request sent to last response byte read
	first time.Duration // request sent to response headers received
	rows  int           // result rows, or records stored
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the q-quantile (0..1) of sorted by linear interpolation.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// windowSlices is how many equal slices of the window a latency percentile is
// taken over; the reported value is the median of the slices' percentiles, so
// one slice hit by a merge or a GC cycle does not decide the run's number.
const windowSlices = 5

// latencyPercentile is the q-quantile, in ms, of the samples' latency: the
// median over windowSlices equal slices of the window when every slice has at
// least ten samples beyond the quantile, the whole window's quantile
// otherwise.
func latencyPercentile(samples []sample, window time.Duration, q float64) float64 {
	need := int(math.Ceil(10 / min(q, 1-q)))
	parts := make([][]float64, windowSlices)
	var all []float64
	for _, s := range samples {
		i := min(int(s.end*windowSlices/window), windowSlices-1)
		parts[i] = append(parts[i], ms(s.lat))
		all = append(all, ms(s.lat))
	}
	var per []float64
	for _, p := range parts {
		if len(p) < need {
			sort.Float64s(all)
			return percentile(all, q)
		}
		sort.Float64s(p)
		per = append(per, percentile(p, q))
	}
	return median(per)
}

// geomean is the geometric mean of positive values: a class twice as slow
// moves it by the same factor whatever the class's absolute latency.
func geomean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(values)))
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), which is
// how the benchmark's acceptance rule measures spread.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) < 2 {
		v := percentile(s, 0.5)
		return v, v, v
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

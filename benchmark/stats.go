package main

import "sort"

// summary describes one metric's samples. P25 and P75 use the exclusive
// method of Python's statistics.quantiles(n=4), the same quartiles the
// spread of a metric is judged by. With fewer than eleven samples there
// is no tail percentile to report, so none is.
type summary struct {
	Median  float64   `json:"median"`
	P25     float64   `json:"p25"`
	P75     float64   `json:"p75"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return summary{Samples: []float64{}}
	}
	q := quartiles(s)
	return summary{
		Median:  median(s),
		P25:     q[0],
		P75:     q[2],
		Min:     s[0],
		Max:     s[len(s)-1],
		N:       len(s),
		Samples: xs,
	}
}

// median of sorted, non-empty s.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles of sorted, non-empty s, by the exclusive method.
func quartiles(s []float64) [3]float64 {
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// medianOf is the median of unsorted xs (0 when empty).
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return summarize(xs).Median
}

package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a p99 over fewer than 1000 samples would be the maximum in disguise.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1). It
// refuses when fewer than minBeyond samples lie beyond that rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples leaves %d beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	s := sortedCopy(xs)
	return s[rank-1], nil
}

// median is the middle sample (mean of the two middle ones for even n);
// 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// geomeanOfMedians is the geometric mean, over classes, of each class's
// median sample. Every listed class must have samples and a positive
// median, so a template that never ran cannot silently drop out.
func geomeanOfMedians(classes []string, byClass map[string][]float64) (float64, error) {
	if len(classes) == 0 {
		return 0, fmt.Errorf("geometric mean over no classes")
	}
	var logSum float64
	for _, c := range classes {
		m := median(byClass[c])
		if len(byClass[c]) == 0 || m <= 0 {
			return 0, fmt.Errorf("class %s has no positive median (%d samples)", c, len(byClass[c]))
		}
		logSum += math.Log(m)
	}
	return math.Exp(logSum / float64(len(classes))), nil
}

// ms and us convert a duration to float milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rateWindows is how many equal windows a timed phase is cut into for
// throughput: the reported rate is their median, so a burst of
// interference in one window does not move it.
const rateWindows = 10

// medianRate is the median, over rateWindows equal windows of [0, d), of
// each window's completion rate; done holds completion offsets from the
// start of the phase (later ones are ignored). A window's rate is its
// completions after the first over the time from its first to its last
// completion, so it is a measured time, not a count quantized by the
// window length; a window with fewer than two completions has rate 0.
func medianRate(done []time.Duration, d time.Duration) float64 {
	w := d / rateWindows
	first := make([]time.Duration, rateWindows)
	last := make([]time.Duration, rateWindows)
	n := make([]int, rateWindows)
	for _, t := range done {
		i := int(t / w)
		if t < 0 || i >= rateWindows {
			continue
		}
		if n[i] == 0 || t < first[i] {
			first[i] = t
		}
		last[i] = max(last[i], t)
		n[i]++
	}
	rates := make([]float64, rateWindows)
	for i := range rates {
		if n[i] >= 2 && last[i] > first[i] {
			rates[i] = float64(n[i]-1) / (last[i] - first[i]).Seconds()
		}
	}
	return median(rates)
}

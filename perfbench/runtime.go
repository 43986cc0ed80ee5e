package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// heapPeak samples the Go heap the last garbage collection marked live
// until stopped and keeps the largest reading. Live bytes, unlike bytes
// allocated, do not depend on where in its cycle the collector was
// when sampled; finish collects once more so the reading at the end of
// the timed phase does not depend on when the last cycle happened.
type heapPeak struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapLive = "/gc/heap/live:bytes"

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapLive}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops sampling and returns the peak in MiB.
func (h *heapPeak) finish() float64 {
	close(h.stop)
	h.wg.Wait()
	runtime.GC()
	s := []metrics.Sample{{Name: heapLive}}
	metrics.Read(s)
	return float64(max(h.peak, s[0].Value.Uint64())) / (1 << 20)
}

// rtSnap is a point-in-time reading of the process's runtime counters.
type rtSnap struct {
	cpu      time.Duration // user + system CPU of the process
	allocs   uint64
	gcCPU    float64 // seconds
	totalCPU float64 // seconds, as the runtime accounts it
	sched    *metrics.Float64Histogram
}

func readRuntime() rtSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	return rtSnap{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:   s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
		sched:    s[3].Value.Float64Histogram(),
	}
}

// schedP99 is the 99th percentile of goroutine scheduling latency
// between two readings, from the runtime's histogram, in ms. Within the
// bucket that holds it, the percentile is interpolated linearly by count,
// so it is not fixed to the runtime's bucket bounds; in the unbounded
// last bucket it is that bucket's lower bound.
func schedP99(a, b rtSnap) float64 {
	counts := make([]uint64, len(b.sched.Counts))
	for i := range counts {
		counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
	}
	return histQuantile(counts, b.sched.Buckets, 0.99) * 1e3
}

// histQuantile is the q-quantile of a histogram whose bucket i holds
// counts[i] samples in [buckets[i], buckets[i+1]); 0 for no samples.
func histQuantile(counts []uint64, buckets []float64, q float64) float64 {
	var total uint64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	want := q * float64(total)
	var seen float64
	for i, n := range counts {
		if n == 0 || seen+float64(n) < want {
			seen += float64(n)
			continue
		}
		lo, hi := buckets[i], buckets[i+1]
		if math.IsInf(hi, 1) || math.IsInf(lo, -1) {
			return math.Max(lo, 0)
		}
		return lo + (hi-lo)*(want-seen)/float64(n)
	}
	return buckets[len(buckets)-1]
}

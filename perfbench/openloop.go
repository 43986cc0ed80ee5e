package main

import "time"

// openLoop issues calls on a fixed schedule whatever the system does:
// call i is due at start + i*interval. A call that stalls delays the
// calls behind it, and their latency is timed from when they were due,
// so the stall's cost to later callers shows (no coordinated omission).
type openLoop struct {
	interval time.Duration
	now      func() time.Time
	sleep    func(time.Duration)
}

// loopSample is one open-loop call: latency from its due time to its
// completion, and how late the generator sent it.
type loopSample struct {
	latency, late time.Duration
	err           error
}

// run issues calls due strictly before stop, returning one sample per
// call in issue order.
func (l openLoop) run(start, stop time.Time, call func(i int) error) []loopSample {
	var out []loopSample
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * l.interval)
		if !due.Before(stop) {
			return out
		}
		if wait := due.Sub(l.now()); wait > 0 {
			l.sleep(wait)
		}
		sent := l.now()
		err := call(i)
		done := l.now()
		out = append(out, loopSample{latency: done.Sub(due), late: sent.Sub(due), err: err})
	}
}

// wallLoop is an openLoop on the real clock.
func wallLoop(interval time.Duration) openLoop {
	return openLoop{interval: interval, now: time.Now, sleep: time.Sleep}
}

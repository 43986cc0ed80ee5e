package main

import (
	"sort"
	"sync"
	"time"

	"apuama"
)

// span is one timed call in the traced run. The benchmark records its
// own spans (op, facade, driver, handler) around calls into the
// program; the program's slow-log span trees are grafted under them by
// joinTrees. Spans of one op share its Op id.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"` // -1 for an op
	Op     int       `json:"op"`     // -1 until joined
	Name   string    `json:"name"`
	SQL    string    `json:"sql,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory for the whole traced run. A nil
// recorder records nothing, so untraced runs pay one pointer check.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span.
func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans)
	r.spans = append(r.spans, s)
}

// containing returns a function that finds the span named name with the
// given SQL text whose interval contains [start, end], or -1. Callers
// hold r.mu.
func (r *recorder) containing(name string) func(sql string, start, end time.Time) int {
	bySQL := map[string][]int{}
	for i, s := range r.spans {
		if s.Name == name {
			bySQL[s.SQL] = append(bySQL[s.SQL], i)
		}
	}
	return func(sql string, start, end time.Time) int {
		for _, i := range bySQL[sql] {
			if p := r.spans[i]; !start.Before(p.Start) && !end.After(p.End) {
				return i
			}
		}
		return -1
	}
}

// joinTrees grafts each slow-log query tree under the recorded span
// named parentName that ran the same SQL text and whose interval
// contains the tree's root.
func (r *recorder) joinTrees(parentName string, trees []apuama.QueryTrace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	find := r.containing(parentName)
	for _, t := range trees {
		if i := find(t.Attr("sql"), t.Start, t.Start.Add(t.Duration)); i >= 0 {
			r.graft(t, i, r.spans[i].Op)
		}
	}
}

// graft appends a program span and its descendants under parent.
func (r *recorder) graft(t apuama.QueryTrace, parent, op int) {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: t.Name,
		SQL: t.Attr("sql"), Start: t.Start, End: t.Start.Add(t.Duration)})
	for _, c := range t.Children {
		r.graft(c, id, op)
	}
}

// link puts every span named childName under the span named parentName
// with the same SQL whose interval contains it (the server-side handler
// span under the client op that caused it).
func (r *recorder) link(childName, parentName string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	find := r.containing(parentName)
	for i, s := range r.spans {
		if s.Name != childName {
			continue
		}
		if j := find(s.SQL, s.Start, s.End); j >= 0 {
			r.spans[i].Parent, r.spans[i].Op = j, r.spans[j].Op
		}
	}
}

// snapshot returns the recorded spans with each span's children listed.
func (r *recorder) snapshot() ([]span, [][]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	spans := append([]span(nil), r.spans...)
	kids := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	return spans, kids
}

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

func spanInterval(s span) interval { return interval{s.Start.UnixNano(), s.End.UnixNano()} }

// coveredLen is the length of the union of ivs clipped to [lo, hi].
// Overlapping intervals (concurrent sub-queries) count once.
func coveredLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, curLo, curHi int64
	for i, iv := range clipped {
		switch {
		case i == 0:
			curLo, curHi = iv.lo, iv.hi
		case iv.lo > curHi:
			total += curHi - curLo
			curLo, curHi = iv.lo, iv.hi
		case iv.hi > curHi:
			curHi = iv.hi
		}
	}
	if len(clipped) > 0 {
		total += curHi - curLo
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent interval, children []interval) time.Duration {
	return time.Duration(parent.hi - parent.lo - coveredLen(children, parent.lo, parent.hi))
}

// childIntervals collects the intervals of span id's children.
func childIntervals(spans []span, kids [][]int, id int) []interval {
	out := make([]interval, 0, len(kids[id]))
	for _, k := range kids[id] {
		out = append(out, spanInterval(spans[k]))
	}
	return out
}

package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"apuama"
	"apuama/internal/sqltypes"
)

// sameResult compares two results the way the repository's SVP oracle
// does: same shape, rows sorted when the order is not significant,
// floats equal to 1e-9 relative (partition count changes the summation
// order), everything else exactly.
func sameResult(got, want *apuama.Result) error {
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	g := append([]sqltypes.Row(nil), got.Rows...)
	w := append([]sqltypes.Row(nil), want.Rows...)
	sortRows(g)
	sortRows(w)
	for i := range g {
		if len(g[i]) != len(w[i]) {
			return fmt.Errorf("row %d: width %d, want %d", i, len(g[i]), len(w[i]))
		}
		for c := range g[i] {
			if !sameValue(g[i][c], w[i][c]) {
				return fmt.Errorf("row %d col %d: %v, want %v", i, c, g[i][c], w[i][c])
			}
		}
	}
	return nil
}

func sameValue(a, b sqltypes.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() == b.IsNull()
	}
	if a.K == sqltypes.KindFloat || b.K == sqltypes.KindFloat {
		af, bf := a.AsFloat(), b.AsFloat()
		return math.Abs(af-bf)/max(math.Abs(bf), 1) <= 1e-9
	}
	return sqltypes.Compare(a, b) == 0
}

func sortRows(rows []sqltypes.Row) {
	sort.SliceStable(rows, func(i, j int) bool {
		for c := range rows[i] {
			if d := sqltypes.Compare(rows[i][c], rows[j][c]); d != 0 {
				return d < 0
			}
		}
		return false
	})
}

// driverValueMatches reports whether a value read through database/sql
// is the engine value v (the driver maps dates to UTC midnight).
func driverValueMatches(got any, v sqltypes.Value) bool {
	switch v.K {
	case sqltypes.KindNull:
		return got == nil
	case sqltypes.KindInt:
		g, ok := got.(int64)
		return ok && g == v.I
	case sqltypes.KindFloat:
		g, ok := got.(float64)
		return ok && g == v.F
	case sqltypes.KindString:
		g, ok := got.(string)
		return ok && g == v.S
	case sqltypes.KindBool:
		g, ok := got.(bool)
		return ok && g == (v.I != 0)
	case sqltypes.KindDate:
		g, ok := got.(time.Time)
		return ok && g.Equal(time.Unix(0, 0).UTC().AddDate(0, 0, int(v.I)))
	}
	return false
}

// sampleTexts picks up to perClass distinct texts of each class, in a
// seeded order, for the single-node answer check.
func sampleTexts(r *rand.Rand, byClass map[string][]string, perClass int) []string {
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var out []string
	for _, c := range classes {
		texts := append([]string(nil), byClass[c]...)
		r.Shuffle(len(texts), func(i, j int) { texts[i], texts[j] = texts[j], texts[i] })
		out = append(out, texts[:min(perClass, len(texts))]...)
	}
	return out
}

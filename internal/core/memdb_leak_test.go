package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"apuama/internal/fault"
	"apuama/internal/tpch"
)

// TestComposerDropsCompositionTables: every composition table the memdb
// composer creates — the final one, rebuilt ones, ones abandoned by an
// attempt rollback — is dropped when its query is done, whether the
// query succeeded, failed over or was cancelled mid-gather. Hundreds of
// SVP queries across both composers must leave the composition database
// empty.
func TestComposerDropsCompositionTables(t *testing.T) {
	templates := []int{1, 3, 4, 5, 6, 12, 14, 21}
	for _, streamCompose := range []bool{false, true} {
		opts := DefaultOptions()
		opts.StreamCompose = streamCompose
		opts.DisableHedging = true // the cancelled query must stay parked on its straggler
		opts.QueryTimeout = 30 * time.Second
		s := buildStack(t, 3, opts)
		r := rand.New(rand.NewSource(7))
		run := func(ctx context.Context) error {
			text, err := tpch.RandomQuery(templates[r.Intn(len(templates))], r)
			if err != nil {
				t.Fatal(err)
			}
			_, err = s.eng.RunSVP(ctx, mustSel(t, text))
			return err
		}
		for i := 0; i < 100; i++ {
			if err := run(context.Background()); err != nil {
				t.Fatalf("streamCompose=%v query %d: %v", streamCompose, i, err)
			}
		}

		// Cancelled mid-gather: node 2 straggles, the other partitions
		// have already streamed into the composition table.
		s.eng.Procs()[2].InjectFaults(fault.New(1).Slow(10*time.Second, 0))
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		_, err := s.eng.RunSVP(ctx, mustSel(t, tpch.MustQuery(1)))
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("streamCompose=%v: straggler query returned %v, want a deadline abort", streamCompose, err)
		}
		s.eng.Procs()[2].InjectFaults(nil)

		// Failover: node 0 crashes mid-partition, its attempt rolls back.
		retries := s.eng.Snapshot().SubQueryRetries
		s.eng.Procs()[0].InjectFaults(fault.New(3).CrashMidQueryAt(1, 1))
		if _, err := s.eng.RunSVP(context.Background(), mustSel(t, tpch.MustQuery(1))); err != nil {
			t.Fatalf("streamCompose=%v: failover query: %v", streamCompose, err)
		}
		if s.eng.Snapshot().SubQueryRetries <= retries {
			t.Fatalf("streamCompose=%v: the crash did not force a failover", streamCompose)
		}
		s.eng.Procs()[0].InjectFaults(nil)

		if left := s.eng.mem.Relations(); len(left) != 0 {
			t.Fatalf("streamCompose=%v: %d composition tables left behind: %v", streamCompose, len(left), left)
		}
	}
}

package seqlist_test

import (
	"testing"

	"pimds/internal/cds/seqlist"
	"pimds/internal/testenv"
)

// TestApplyBatchIntoSteadyStateAllocs pins ApplyBatchInto's
// //pimvet:allocfree annotation: once the sort scratch has grown to the
// batch size and the free list holds recycled nodes, a size-stable
// point-only batch (every Remove paired with an Add) must not touch
// the heap.
func TestApplyBatchIntoSteadyStateAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	l := seqlist.New()
	for k := int64(0); k < 128; k += 2 {
		l.AddKey(k)
	}
	// Same-key Remove→Add pairs keep their batch order through the
	// stable sort, so every insertion reuses the node the removal just
	// freed.
	var ops []seqlist.Op
	for k := int64(0); k < 128; k += 2 {
		ops = append(ops,
			seqlist.Op{Kind: seqlist.Remove, Key: k},
			seqlist.Op{Kind: seqlist.Add, Key: k},
		)
	}
	results := make([]seqlist.OpResult, len(ops))
	l.ApplyBatchInto(ops, results, nil) // warm the sort scratch
	avg := testing.AllocsPerRun(100, func() {
		l.ApplyBatchInto(ops, results, nil)
	})
	if avg != 0 {
		t.Errorf("ApplyBatchInto steady state: %.1f allocs/op, want 0", avg)
	}
	for i, r := range results {
		if !r.OK {
			t.Fatalf("op %d (%+v) unexpectedly failed", i, ops[i])
		}
	}
	if got := l.Len(); got != 64 {
		t.Fatalf("list length %d after steady-state batches, want 64", got)
	}
}

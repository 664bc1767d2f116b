package seqlist

import (
	"math/rand"
	"sort"
	"testing"
)

func fill(t *testing.T, keys ...int64) *List {
	t.Helper()
	l := New()
	for _, k := range keys {
		if !l.AddKey(k) {
			t.Fatalf("duplicate key %d in fixture", k)
		}
	}
	return l
}

func applyOne(l *List, op Op) (OpResult, []int64) {
	res := make([]OpResult, 1)
	arena := l.ApplyBatchInto([]Op{op}, res, nil)
	r := res[0]
	if !r.Scan {
		return r, nil
	}
	return r, arena[r.Start : r.Start+r.N]
}

func TestRangeScanEdgeCases(t *testing.T) {
	l := fill(t, 10, 20, 30, 40, 50)

	// Plain scan over the middle.
	r, keys := applyOne(l, Op{Kind: RangeScan, Key: 15, Hi: 45})
	if want := []int64{20, 30, 40}; !int64sEq(keys, want) {
		t.Errorf("scan [15,45): got %v, want %v", keys, want)
	}
	if r.Value != 45 {
		t.Errorf("complete scan cursor: got %d, want 45", r.Value)
	}

	// Bounds are half-open: lo inclusive, hi exclusive.
	_, keys = applyOne(l, Op{Kind: RangeScan, Key: 20, Hi: 40})
	if want := []int64{20, 30}; !int64sEq(keys, want) {
		t.Errorf("scan [20,40): got %v, want %v", keys, want)
	}

	// Empty interval: lo == hi.
	r, keys = applyOne(l, Op{Kind: RangeScan, Key: 30, Hi: 30})
	if len(keys) != 0 || r.Value != 30 || !r.Scan {
		t.Errorf("empty scan: keys %v, cursor %d, scan %v", keys, r.Value, r.Scan)
	}

	// Inverted interval: lo > hi is a legal empty scan, complete.
	r, keys = applyOne(l, Op{Kind: RangeScan, Key: 50, Hi: 10})
	if len(keys) != 0 || r.Value != 10 {
		t.Errorf("inverted scan: keys %v, cursor %d", keys, r.Value)
	}

	// Interval with no matching keys inside the population.
	r, keys = applyOne(l, Op{Kind: RangeScan, Key: 21, Hi: 29})
	if len(keys) != 0 || r.Value != 29 {
		t.Errorf("hole scan: keys %v, cursor %d", keys, r.Value)
	}

	// Limit 0 means unlimited.
	_, keys = applyOne(l, Op{Kind: RangeScan, Key: 0, Hi: 100, Limit: 0})
	if len(keys) != 5 {
		t.Errorf("limit 0: got %d keys, want 5", len(keys))
	}

	// Limit truncates and the cursor points at the first unreturned key.
	r, keys = applyOne(l, Op{Kind: RangeScan, Key: 0, Hi: 100, Limit: 2})
	if want := []int64{10, 20}; !int64sEq(keys, want) {
		t.Errorf("limited scan: got %v, want %v", keys, want)
	}
	if r.Value != 30 {
		t.Errorf("limited scan cursor: got %d, want 30", r.Value)
	}
	// Resuming from the cursor completes the range with no gaps.
	r, keys = applyOne(l, Op{Kind: RangeScan, Key: r.Value, Hi: 100, Limit: 100})
	if want := []int64{30, 40, 50}; !int64sEq(keys, want) {
		t.Errorf("resumed scan: got %v, want %v", keys, want)
	}
	if r.Value != 100 {
		t.Errorf("resumed scan cursor: got %d, want 100", r.Value)
	}

	// Scanning an empty list.
	empty := New()
	r, keys = applyOne(empty, Op{Kind: RangeScan, Key: 0, Hi: 100})
	if len(keys) != 0 || r.Value != 100 {
		t.Errorf("scan of empty list: keys %v, cursor %d", keys, r.Value)
	}
}

func TestPredSuccEdgeCases(t *testing.T) {
	l := fill(t, 10, 20, 30)
	for _, tc := range []struct {
		kind OpKind
		key  int64
		ok   bool
		val  int64
	}{
		{Pred, 25, true, 20},
		{Pred, 20, true, 10}, // strict: pred of a present key is its left neighbor
		{Pred, 10, false, 0},
		{Pred, 5, false, 0},
		{Pred, 1000, true, 30},
		{Succ, 15, true, 20},
		{Succ, 20, true, 30}, // strict
		{Succ, 30, false, 0},
		{Succ, -5, true, 10},
	} {
		r, _ := applyOne(l, Op{Kind: tc.kind, Key: tc.key})
		if r.OK != tc.ok || (tc.ok && r.Value != tc.val) {
			t.Errorf("%v(%d): got ok=%v val=%d, want ok=%v val=%d",
				tc.kind, tc.key, r.OK, r.Value, tc.ok, tc.val)
		}
	}
}

func TestPopMinPopMaxEdgeCases(t *testing.T) {
	l := fill(t, 7, 3, 9)
	if v, ok := l.PopMinKey(); !ok || v != 3 {
		t.Fatalf("PopMin: got %d,%v", v, ok)
	}
	if v, ok := l.PopMaxKey(); !ok || v != 9 {
		t.Fatalf("PopMax: got %d,%v", v, ok)
	}
	if v, ok := l.PopMinKey(); !ok || v != 7 {
		t.Fatalf("PopMin: got %d,%v", v, ok)
	}
	// Pops on an empty structure fail cleanly.
	if _, ok := l.PopMinKey(); ok {
		t.Error("PopMin on empty list reported ok")
	}
	if _, ok := l.PopMaxKey(); ok {
		t.Error("PopMax on empty list reported ok")
	}
	if l.Len() != 0 {
		t.Errorf("len after draining: %d", l.Len())
	}
	// And through the batch path too.
	r, _ := applyOne(l, Op{Kind: PopMin})
	if r.OK {
		t.Error("batched PopMin on empty list reported ok")
	}
}

// TestOrderedBatchMatchesSerialExecution drives random mixed batches
// through ApplyBatchInto and through one-op-at-a-time execution
// in the serialization the batch documents (pops in batch order first,
// then remaining ops sorted by key, ties in batch order); the results
// and final contents must agree exactly.
func TestOrderedBatchMatchesSerialExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	batched, serial := New(), New()
	for i := int64(0); i < 64; i += 2 {
		batched.AddKey(i)
		serial.AddKey(i)
	}
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(12)
		ops := make([]Op, n)
		for i := range ops {
			kind := OpKind(rng.Intn(8))
			op := Op{Kind: kind, Key: int64(rng.Intn(80))}
			if kind == RangeScan {
				op.Hi = op.Key + int64(rng.Intn(40))
				op.Limit = rng.Intn(6) // 0 = unlimited
			}
			ops[i] = op
		}
		res := make([]OpResult, n)
		arena := batched.ApplyBatchInto(ops, res, nil)

		// Serial reference: same serialization, one op at a time.
		order := make([]int, 0, n)
		for i, op := range ops {
			if op.Kind == PopMin || op.Kind == PopMax {
				order = append(order, i)
			}
		}
		keyed := make([]int, 0, n)
		for i, op := range ops {
			if op.Kind != PopMin && op.Kind != PopMax {
				keyed = append(keyed, i)
			}
		}
		sort.SliceStable(keyed, func(a, b int) bool { return ops[keyed[a]].Key < ops[keyed[b]].Key })
		order = append(order, keyed...)

		for _, i := range order {
			want := make([]OpResult, 1)
			wantArena := serial.ApplyBatchInto(ops[i:i+1], want, nil)
			got, w := res[i], want[0]
			if got.OK != w.OK || got.Value != w.Value || got.N != w.N || got.Scan != w.Scan {
				t.Fatalf("round %d op %d (%+v): batch %+v, serial %+v", round, i, ops[i], got, w)
			}
			if got.Scan && !int64sEq(arena[got.Start:got.Start+got.N], wantArena) {
				t.Fatalf("round %d op %d scan keys: batch %v, serial %v",
					round, i, arena[got.Start:got.Start+got.N], wantArena)
			}
		}
		if !int64sEq(batched.Keys(), serial.Keys()) {
			t.Fatalf("round %d: contents diverged:\nbatch:  %v\nserial: %v",
				round, batched.Keys(), serial.Keys())
		}
	}
}

func int64sEq(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

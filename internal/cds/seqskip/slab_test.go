package seqskip

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// checkSlab verifies the slab's structural invariants: every level is
// strictly ascending and a sub-list of the level below, the bottom
// level holds exactly Len keys, no level above the height is linked,
// every tower is as tall as the levels it appears on, and the free
// list shares no record with the live list.
func checkSlab(t *testing.T, l *List) {
	t.Helper()
	live := map[int32]bool{}
	for lvl := 0; lvl < MaxHeight; lvl++ {
		if lvl >= l.height {
			if n := l.next(0, lvl); n != 0 {
				t.Fatalf("level %d linked above height %d", lvl, l.height)
			}
			continue
		}
		count, prev := 0, int64(minKey)
		for n := l.next(0, lvl); n != 0; n = l.next(n, lvl) {
			if k := l.nodes[n].key; k <= prev {
				t.Fatalf("level %d not ascending at key %d", lvl, k)
			} else {
				prev = k
			}
			if int(l.nodes[n].h) <= lvl {
				t.Fatalf("node %d (height %d) linked on level %d", n, l.nodes[n].h, lvl)
			}
			if lvl == 0 {
				live[n] = true
			} else if !live[n] {
				t.Fatalf("node %d on level %d is missing below", n, lvl)
			}
			count++
		}
		if lvl == 0 && count != l.size {
			t.Fatalf("bottom level holds %d keys, Len is %d", count, l.size)
		}
	}
	for n := l.free; n != 0; n = l.nodes[n].next[0] {
		if live[n] {
			t.Fatalf("record %d is both live and free", n)
		}
	}
}

// TestSlabAgainstMap drives random point and ordered ops — PopMin,
// PopMax and limited range scans included — against a map reference,
// through grow and shrink phases so records and tall towers (above the
// inline levels) are freed and reused, checking the slab invariants as
// it goes.
func TestSlabAgainstMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := New(uint64(seed))
		model := map[int64]bool{}
		tall := false
		for phase := 0; phase < 6; phase++ {
			addBias := 5 - 3*(phase%2) // grow, shrink, grow, ...
			for i := 0; i < 700; i++ {
				k := int64(rng.Intn(2048))
				switch op := rng.Intn(10); {
				case op < addBias:
					if l.AddKey(k) == model[k] {
						t.Logf("Add(%d) disagrees with model", k)
						return false
					}
					model[k] = true
				case op < 7:
					if l.RemoveKey(k) != model[k] {
						t.Logf("Remove(%d) disagrees with model", k)
						return false
					}
					delete(model, k)
				case op == 7:
					want, wantOK := modelSucc(model, minKey)
					if v, ok := l.PopMinKey(); ok != wantOK || v != want {
						t.Logf("PopMin: got %d,%v want %d,%v", v, ok, want, wantOK)
						return false
					}
					delete(model, want)
				case op == 8:
					want, wantOK := modelPred(model, 1<<62)
					if v, ok := l.PopMaxKey(); ok != wantOK || v != want {
						t.Logf("PopMax: got %d,%v want %d,%v", v, ok, want, wantOK)
						return false
					}
					delete(model, want)
				default:
					hi := k + int64(rng.Intn(200))
					limit := rng.Intn(20)
					arena, _, cursor := l.RangeScanInto(k, hi, limit, nil)
					checkScan(t, model, k, hi, limit, arena, cursor)
				}
			}
			for n := 1; n < len(l.nodes); n++ {
				tall = tall || l.nodes[n].h > inline
			}
			checkSlab(t, l)
			if l.Len() != len(model) {
				t.Logf("size %d, model %d", l.Len(), len(model))
				return false
			}
		}
		if !tall {
			t.Log("no tower above the inline levels was built")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestSlabChurnBounded runs many remove/add rounds at a fixed
// occupancy. Freed records and upper blocks must be reused: the slab
// never outgrows the peak live count, and the upper pool never holds
// more than the peak live towers of each width need.
func TestSlabChurnBounded(t *testing.T) {
	const (
		occupancy = 2048
		churn     = 512
		rounds    = 200
		space     = 1 << 16
	)
	rng := rand.New(rand.NewSource(5))
	l := New(17)
	live := make([]int64, 0, occupancy)
	var widths, peak [MaxHeight - inline + 1]int
	width := func(k int64) int {
		var preds [MaxHeight]int32
		return int(l.nodes[l.findPreds(k, &preds)].h) - inline
	}
	add := func() {
		for {
			k := rng.Int63n(space)
			if l.AddKey(k) {
				live = append(live, k)
				if w := width(k); w > 0 {
					widths[w]++
					peak[w] = max(peak[w], widths[w])
				}
				return
			}
		}
	}
	for len(live) < occupancy {
		add()
	}
	for r := 0; r < rounds; r++ {
		for i := 0; i < churn; i++ {
			j := rng.Intn(len(live))
			k := live[j]
			if w := width(k); w > 0 {
				widths[w]--
			}
			if !l.RemoveKey(k) {
				t.Fatalf("Remove(%d) of a live key failed", k)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for i := 0; i < churn; i++ {
			add()
		}
	}
	checkSlab(t, l)
	if got, want := len(l.nodes), occupancy+1; got != want {
		t.Errorf("slab holds %d records after churn, want %d (occupancy + head)", got, want)
	}
	bound := MaxHeight - inline // the head's block
	tall := 0
	for w, p := range peak {
		bound += w * p
		tall += p
	}
	if tall == 0 {
		t.Fatal("churn built no tower above the inline levels")
	}
	if len(l.upper) > bound {
		t.Errorf("upper pool holds %d links, want ≤ %d (peak live towers per width)", len(l.upper), bound)
	}
}

// fillRandom builds a list of keys 0..n-1 inserted in random order, so
// slab order does not follow key order as it would for sorted inserts.
func fillRandom(n int) *List {
	l := New(1)
	for _, k := range rand.New(rand.NewSource(2)).Perm(n) {
		l.AddKey(int64(k))
	}
	return l
}

var sinkBool bool

func BenchmarkContains(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 18} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			l := fillRandom(n)
			keys := make([]int64, 1<<16)
			rng := rand.New(rand.NewSource(3))
			for i := range keys {
				keys[i] = rng.Int63n(int64(n))
			}
			l.ResetSteps()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkBool = l.ContainsKey(keys[i&(len(keys)-1)])
			}
			b.ReportMetric(float64(l.Steps())/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkRangeScan scans spans of 64 consecutive keys from random
// starts: one descent, then a bottom-level walk through records placed
// in insertion order, not key order.
func BenchmarkRangeScan(b *testing.B) {
	const span = 64
	for _, n := range []int{1 << 12, 1 << 18} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			l := fillRandom(n)
			los := make([]int64, 1<<16)
			rng := rand.New(rand.NewSource(4))
			for i := range los {
				los[i] = rng.Int63n(int64(n - span))
			}
			arena := make([]int64, 0, span)
			l.ResetSteps()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := los[i&(len(los)-1)]
				arena, _, _ = l.RangeScanInto(lo, lo+span, 0, arena[:0])
			}
			b.ReportMetric(float64(l.Steps())/float64(b.N), "steps/op")
		})
	}
}

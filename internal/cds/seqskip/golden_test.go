package seqskip

import (
	"math/rand"
	"testing"
)

// TestGoldenSteps pins the exact node-visit counts of a fixed seed and
// op sequence. Steps are the β of the analytical model and feed the
// simulator's virtual time, so a change to the node layout or the
// traversal code must leave every count here unchanged. The expected
// values were recorded from the original pointer-based implementation.
func TestGoldenSteps(t *testing.T) {
	l := New(12345)
	rng := rand.New(rand.NewSource(99))
	const space = 1 << 13

	phase := func(name string, want uint64, f func()) {
		t.Helper()
		l.ResetSteps()
		f()
		if got := l.Steps(); got != want {
			t.Errorf("%s: %d steps, want %d", name, got, want)
		}
	}

	phase("build", 55541, func() {
		for i := 0; i < 3000; i++ {
			l.AddKey(rng.Int63n(space))
		}
	})
	phase("point", 41661, func() {
		for i := 0; i < 2000; i++ {
			k := rng.Int63n(space)
			switch rng.Intn(3) {
			case 0:
				l.ContainsKey(k)
			case 1:
				l.AddKey(k)
			default:
				l.RemoveKey(k)
			}
		}
	})
	phase("neighbors", 31032, func() {
		for i := 0; i < 500; i++ {
			k := rng.Int63n(space)
			l.PredKey(k)
			l.SuccKey(k)
			l.Successor(k)
		}
		l.Min()
		l.Max()
	})
	phase("scans", 7812, func() {
		var arena []int64
		for i := 0; i < 200; i++ {
			lo := rng.Int63n(space)
			arena, _, _ = l.RangeScanInto(lo, lo+rng.Int63n(256), rng.Intn(40), arena[:0])
		}
	})
	phase("pops", 4898, func() {
		for i := 0; i < 150; i++ {
			l.PopMinKey()
			l.PopMaxKey()
		}
	})
	phase("batches", 13264, func() {
		for b := 0; b < 40; b++ {
			ops := make([]Op, 1+rng.Intn(48))
			for i := range ops {
				ops[i] = Op{Kind: OpKind(rng.Intn(3)), Key: rng.Int63n(space)}
			}
			l.ApplyBatch(ops)
		}
	})
	phase("drain", 61980, func() {
		for i := 0; i < 1500; i++ {
			l.RemoveKey(rng.Int63n(space))
		}
		for i := 0; i < 1500; i++ {
			l.AddKey(rng.Int63n(space))
		}
	})

	var sum int64
	for i, k := range l.Keys() {
		sum += int64(i+1) * k
	}
	if n, wantN, wantSum := l.Len(), 3160, int64(27030743226); n != wantN || sum != wantSum {
		t.Errorf("final state: %d keys (weighted sum %d), want %d (%d)", n, sum, wantN, wantSum)
	}
}

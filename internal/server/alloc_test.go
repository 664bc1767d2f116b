package server

import (
	"testing"
	"time"

	"pimds/internal/testenv"
	"pimds/internal/wire"
)

// These tests pin the //pimvet:allocfree annotations on the server's
// combining window with the runtime's allocation counter: once the
// pass and structure free lists are warm, a combine pass over
// a size-stable batch must not touch the heap — a GC pause inside
// applyBatch stalls every published op on the shard.

func skipIfRace(t *testing.T) {
	t.Helper()
	if testenv.RaceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
}

// steadyBatch builds Remove→Add pairs over even keys: size-stable
// against a list preloaded with the same keys, so node free lists
// recycle perfectly.
func steadyBatch(n int) []pendingOp {
	batch := make([]pendingOp, 0, 2*n)
	for i := 0; i < n; i++ {
		k := int64(2 * i)
		batch = append(batch,
			pendingOp{op: wire.Op{ID: uint64(2 * i), Kind: wire.Remove, Key: k}},
			pendingOp{op: wire.Op{ID: uint64(2*i + 1), Kind: wire.Add, Key: k}},
		)
	}
	return batch
}

func TestApplyBatchAllocs(t *testing.T) {
	skipIfRace(t)
	for _, structure := range []string{StructList, StructSkip, StructQueue, StructStack} {
		t.Run(structure, func(t *testing.T) {
			be, err := newBackend(structure, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			s := &Server{cfg: Config{}.withDefaults(), epoch: time.Now()}
			sh := &shard{be: be}
			ps := newPass(sh, false)
			switch structure {
			case StructList, StructSkip:
				ps.batch = append(ps.batch, steadyBatch(64)...)
				// Preload the even keys so removals in the steady batch
				// always find their node.
				pre := make([]wire.Op, 64)
				out := make([]wire.Result, 64)
				for i := range pre {
					pre[i] = wire.Op{Kind: wire.Add, Key: int64(2 * i)}
				}
				be.ApplyBatch(pre, out, nil)
			case StructQueue:
				for i := 0; i < 64; i++ {
					ps.batch = append(ps.batch,
						pendingOp{op: wire.Op{Kind: wire.Enqueue, Key: int64(i)}},
						pendingOp{op: wire.Op{Kind: wire.Dequeue}},
					)
				}
			case StructStack:
				for i := 0; i < 64; i++ {
					ps.batch = append(ps.batch,
						pendingOp{op: wire.Op{Kind: wire.Push, Key: int64(i)}},
						pendingOp{op: wire.Op{Kind: wire.Pop}},
					)
				}
			}
			s.applyBatch(sh, ps) // warm scratch and free lists
			avg := testing.AllocsPerRun(100, func() {
				s.applyBatch(sh, ps)
			})
			if avg != 0 {
				t.Errorf("applyBatch(%s) steady state: %.1f allocs/op, want 0", structure, avg)
			}
			for i := range ps.batch {
				if ps.results[i].Status != wire.StatusOK {
					t.Fatalf("op %d: status %v", i, ps.results[i].Status)
				}
			}
		})
	}
}

// TestApplyBatchDurableAllocs pins the durable window: with a WAL the
// same pass also stages its record into the pass's preallocated
// buffer, which must not allocate either.
func TestApplyBatchDurableAllocs(t *testing.T) {
	skipIfRace(t)
	be, err := newBackend(StructSkip, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{cfg: Config{}.withDefaults(), epoch: time.Now(), wal: &walState{}}
	sh := &shard{be: be}
	ps := newPass(sh, true)
	ps.batch = append(ps.batch, steadyBatch(64)...)
	s.applyBatch(sh, ps) // warm free lists
	avg := testing.AllocsPerRun(100, func() {
		s.applyBatch(sh, ps)
	})
	if avg != 0 {
		t.Errorf("durable applyBatch steady state: %.1f allocs/op, want 0", avg)
	}
	if len(ps.buf) == 0 || sh.walSeq == 0 {
		t.Fatalf("no record staged: %d bytes, seq %d", len(ps.buf), sh.walSeq)
	}
}

// TestApplyBatchOrderedAllocs pins the ordered combiner path: once the
// arena and sort scratch have grown to the batch's high-water mark, a
// pass mixing point ops, range scans and extremum pops must not
// allocate either — the scan values live in the shard arena, and the
// per-delivery copies happen outside the pinned window.
func TestApplyBatchOrderedAllocs(t *testing.T) {
	skipIfRace(t)
	for _, structure := range []string{StructList, StructSkip} {
		t.Run(structure, func(t *testing.T) { checkOrderedAllocs(t, structure) })
	}
}

func checkOrderedAllocs(t *testing.T, structure string) {
	be, err := newBackend(structure, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{cfg: Config{}.withDefaults(), epoch: time.Now()}
	sh := &shard{be: be}
	ps := newPass(sh, false)
	pre := make([]wire.Op, 128)
	out := make([]wire.Result, 128)
	for i := range pre {
		pre[i] = wire.Op{Kind: wire.Add, Key: int64(2 * i)}
	}
	be.ApplyBatch(pre, out, nil)
	// Size-stable mix: each round pops the extremes and re-adds them,
	// with scans and neighbor queries interleaved.
	ps.batch = append(ps.batch,
		pendingOp{op: wire.Op{ID: 1, Kind: wire.PopMin}},
		pendingOp{op: wire.Op{ID: 2, Kind: wire.PopMax}},
		pendingOp{op: wire.Op{ID: 3, Kind: wire.Add, Key: 0}},
		pendingOp{op: wire.Op{ID: 4, Kind: wire.Add, Key: 254}},
		pendingOp{op: wire.Op{ID: 5, Kind: wire.RangeScan, Key: 10, Hi: 90, Limit: 16}},
		pendingOp{op: wire.Op{ID: 6, Kind: wire.Pred, Key: 100}},
		pendingOp{op: wire.Op{ID: 7, Kind: wire.Succ, Key: 100}},
		pendingOp{op: wire.Op{ID: 8, Kind: wire.RangeScan, Key: 100, Hi: 200, Limit: 32}},
		pendingOp{op: wire.Op{ID: 9, Kind: wire.Contains, Key: 50}},
	)
	s.applyBatch(sh, ps) // warm arena and sort scratch
	avg := testing.AllocsPerRun(100, func() {
		s.applyBatch(sh, ps)
	})
	if avg != 0 {
		t.Errorf("ordered applyBatch steady state: %.1f allocs/op, want 0", avg)
	}
	for i := range ps.batch {
		if ps.results[i].Status != wire.StatusOK {
			t.Fatalf("op %d: status %v", i, ps.results[i].Status)
		}
	}
	if n := len(ps.results[4].Values); n != 16 {
		t.Fatalf("scan returned %d values, want 16", n)
	}
}

func TestSampleHitAllocs(t *testing.T) {
	skipIfRace(t)
	c := &conn{rng: 0x9e3779b97f4a7c15}
	var hits int
	avg := testing.AllocsPerRun(1000, func() {
		if c.sampleHit(1 << 60) {
			hits++
		}
	})
	if avg != 0 {
		t.Errorf("sampleHit: %.1f allocs/op, want 0", avg)
	}
}

func TestSpanComponentsAllocs(t *testing.T) {
	skipIfRace(t)
	sp := &span{start: 1, pub: 2, pick: 3, applyStart: 4, applied: 5, enc: 6, flush: 7}
	var total int64
	avg := testing.AllocsPerRun(1000, func() {
		for _, v := range sp.components() {
			total += v
		}
	})
	if avg != 0 {
		t.Errorf("span.components: %.1f allocs/op, want 0", avg)
	}
}

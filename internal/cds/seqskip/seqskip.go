// Package seqskip implements a sequential skip-list set with integer
// keys. It is the per-partition structure used by the flat-combining
// skip-list (Section 4.2) and the reference implementation whose
// traversal lengths calibrate β in the analytical model.
//
// Nodes live in a pointer-free slab: one 32-byte record per node, linked
// by slab index rather than by pointer. A descent step at levels below
// inline reads one record — key and link side by side — so each visit
// the model charges as one memory access is one cache line on the host,
// and the garbage collector never scans the structure.
package seqskip

import "sort"

// MaxHeight is the maximum tower height. 2^24 expected elements is far
// beyond any workload in this repository.
const MaxHeight = 24

// Op kinds, shared shape with package seqlist but defined locally so
// the packages stay independent.
type OpKind uint8

// The three set operations.
const (
	Contains OpKind = iota
	Add
	Remove
)

// Op is one set operation request.
type Op struct {
	Kind OpKind
	Key  int64
}

// inline is the number of tower levels stored in the node record
// itself. A tower reaches level inline with probability 2^-inline, so
// only about 6% of nodes spill into the shared upper pool.
const inline = 4

// node is one 32-byte slab record. Links are slab indices; index 0 is
// the head sentinel, which is never anyone's successor, so a 0 link
// also means nil. Levels inline..h-1 sit in List.upper at [up, up+h-inline).
// A free record chains the next free record through next[0].
type node struct {
	key  int64
	next [inline]int32
	up   int32
	h    int32
}

// List is a sequential skip-list with a -∞ head sentinel. Create one
// with New.
type List struct {
	nodes  []node                        // slab; nodes[0] is the head
	upper  []int32                       // links at levels ≥ inline; the head's block is at 0
	free   int32                         // first free slab record, 0 = none
	freeUp [MaxHeight - inline + 1]int32 // free upper blocks by width, 0 = none

	height int // current tallest tower
	size   int
	rng    uint64

	steps uint64 // node visits, for cost accounting
}

// initCap is the initial slab capacity. At 2 KiB and up, the runtime
// places a slab at a multiple of 32 bytes (every size class from 256
// bytes is a multiple of 32, and large objects are page-aligned), so no
// 32-byte record straddles a 64-byte cache line.
const initCap = 64

// New returns an empty skip-list whose tower heights are drawn from the
// deterministic stream seeded by seed (same seed ⇒ same shape).
func New(seed uint64) *List {
	l := &List{
		nodes:  make([]node, 1, initCap),
		upper:  make([]int32, MaxHeight-inline, initCap),
		height: 1,
		rng:    seed*2685821657736338717 + 1,
	}
	l.nodes[0] = node{key: minKey, h: MaxHeight}
	return l
}

const minKey = -1 << 63

// Len returns the number of keys in the list.
func (l *List) Len() int { return l.size }

// Steps returns node visits since the last ResetSteps.
func (l *List) Steps() uint64 { return l.steps }

// ResetSteps zeroes the visit counter.
func (l *List) ResetSteps() { l.steps = 0 }

// randLevel draws a tower height with geometric(1/2) distribution via
// xorshift64.
func (l *List) randLevel() int {
	l.rng ^= l.rng << 13
	l.rng ^= l.rng >> 7
	l.rng ^= l.rng << 17
	h := 1
	for v := l.rng; v&1 == 1 && h < MaxHeight; v >>= 1 {
		h++
	}
	return h
}

// next returns x's successor at level lvl (0 = none).
func (l *List) next(x int32, lvl int) int32 {
	if lvl < inline {
		return l.nodes[x].next[lvl]
	}
	return l.upper[l.nodes[x].up+int32(lvl-inline)]
}

func (l *List) setNext(x int32, lvl int, y int32) {
	if lvl < inline {
		l.nodes[x].next[lvl] = y
		return
	}
	l.upper[l.nodes[x].up+int32(lvl-inline)] = y
}

// walk advances from x along level lvl while the successor's key is
// below k, charging one step per inspected successor (every advance,
// plus the node it stops at), and returns the last node left of k.
func (l *List) walk(x int32, lvl int, k int64) int32 {
	for {
		nx := l.next(x, lvl)
		if nx == 0 {
			return x
		}
		l.steps++
		if l.nodes[nx].key >= k {
			return x
		}
		x = nx
	}
}

// findPreds fills preds with the rightmost node before k on every
// level and returns the node at k on the bottom level, if any (0 if
// not). It is walk unrolled over both storage tiers, because every
// point op, scan and neighbor query pays for it.
func (l *List) findPreds(k int64, preds *[MaxHeight]int32) int32 {
	nodes, upper := l.nodes, l.upper
	var x int32
	var steps uint64
	lvl := l.height - 1
	for ; lvl >= inline; lvl-- {
		for {
			nx := upper[nodes[x].up+int32(lvl-inline)]
			if nx == 0 {
				break
			}
			steps++
			if nodes[nx].key >= k {
				break
			}
			x = nx
		}
		preds[lvl] = x
	}
	for ; lvl >= 0; lvl-- {
		for {
			nx := nodes[x].next[lvl]
			if nx == 0 {
				break
			}
			steps++
			if nodes[nx].key >= k {
				break
			}
			x = nx
		}
		preds[lvl] = x
	}
	l.steps += steps
	if c := nodes[x].next[0]; c != 0 && nodes[c].key == k {
		return c
	}
	return 0
}

// ContainsKey reports whether k is in the list.
func (l *List) ContainsKey(k int64) bool {
	var preds [MaxHeight]int32
	return l.findPreds(k, &preds) != 0
}

// AddKey inserts k and reports whether it was absent.
func (l *List) AddKey(k int64) bool {
	var preds [MaxHeight]int32
	if l.findPreds(k, &preds) != 0 {
		return false
	}
	l.insert(k, &preds)
	return true
}

// insert links a new node for k after preds, drawing its height.
func (l *List) insert(k int64, preds *[MaxHeight]int32) {
	h := l.randLevel()
	for l.height < h {
		preds[l.height] = 0
		l.height++
	}
	n := l.alloc(k, h)
	for i := 0; i < h; i++ {
		l.setNext(n, i, l.next(preds[i], i))
		l.setNext(preds[i], i, n)
	}
	l.size++
}

// alloc takes a record (and, for towers taller than inline, an upper
// block) from the free lists, or from the end of the slab and pool.
// Links are left for the caller to set.
func (l *List) alloc(k int64, h int) int32 {
	n := l.free
	if n != 0 {
		l.free = l.nodes[n].next[0]
	} else {
		if len(l.nodes) == cap(l.nodes) {
			l.nodes = growSlab(l.nodes)
		}
		n = int32(len(l.nodes))
		l.nodes = l.nodes[:n+1]
	}
	var up int32
	if w := h - inline; w > 0 {
		if up = l.freeUp[w]; up != 0 {
			l.freeUp[w] = l.upper[up]
		} else {
			for len(l.upper)+w > cap(l.upper) {
				l.upper = growSlab(l.upper)
			}
			up = int32(len(l.upper))
			l.upper = l.upper[:len(l.upper)+w]
		}
	}
	l.nodes[n] = node{key: k, up: up, h: int32(h)}
	return n
}

// growSlab grows s's capacity: doubling while small, then by a quarter,
// so a large slab carries little unused capacity for the GC's heap goal
// to count. It is the only allocation an insert can make, so churn at a
// steady size allocates nothing.
func growSlab[T node | int32](s []T) []T {
	c := 2 * cap(s)
	if cap(s) >= 1024 {
		c = cap(s) + cap(s)/4
	}
	if c > 1<<31-1 {
		panic("seqskip: slab exceeds 2^31-1 entries")
	}
	grown := make([]T, len(s), c) //pimvet:allow allocfree: amortized growth to the high-water size; steady churn reuses freed records
	copy(grown, s)
	return grown
}

// unlink removes c, whose predecessors are preds, from every level of
// its tower, lowers the list height past emptied top levels, and puts
// c's record and upper block on the free lists.
func (l *List) unlink(c int32, preds *[MaxHeight]int32) {
	h := int(l.nodes[c].h)
	for i := 0; i < h; i++ {
		if l.next(preds[i], i) == c {
			l.setNext(preds[i], i, l.next(c, i))
		}
	}
	for l.height > 1 && l.next(0, l.height-1) == 0 {
		l.height--
	}
	if w := h - inline; w > 0 {
		up := l.nodes[c].up
		l.upper[up] = l.freeUp[w]
		l.freeUp[w] = up
	}
	l.nodes[c].next[0] = l.free
	l.free = c
	l.size--
}

// RemoveKey deletes k and reports whether it was present.
func (l *List) RemoveKey(k int64) bool {
	var preds [MaxHeight]int32
	c := l.findPreds(k, &preds)
	if c == 0 {
		return false
	}
	l.unlink(c, &preds)
	return true
}

// Apply executes a single operation and returns its result.
func (l *List) Apply(op Op) bool {
	switch op.Kind {
	case Contains:
		return l.ContainsKey(op.Key)
	case Add:
		return l.AddKey(op.Key)
	case Remove:
		return l.RemoveKey(op.Key)
	default:
		return false
	}
}

// Keys returns the keys in ascending order (for tests).
func (l *List) Keys() []int64 {
	keys := make([]int64, 0, l.size)
	for n := l.nodes[0].next[0]; n != 0; n = l.nodes[n].next[0] {
		keys = append(keys, l.nodes[n].key)
	}
	return keys
}

// Successor returns the smallest key ≥ k and whether one exists. The
// PIM skip-list's migration protocol uses it to walk a partition's
// nodes in ascending order.
func (l *List) Successor(k int64) (int64, bool) {
	var preds [MaxHeight]int32
	l.findPreds(k, &preds)
	if n := l.nodes[preds[0]].next[0]; n != 0 {
		return l.nodes[n].key, true
	}
	return 0, false
}

// Min returns the smallest key and whether the list is non-empty.
func (l *List) Min() (int64, bool) {
	if n := l.nodes[0].next[0]; n != 0 {
		return l.nodes[n].key, true
	}
	return 0, false
}

// Max returns the largest key and whether the list is non-empty. The
// walk rides the top levels right, so it costs O(log n) expected steps
// rather than a bottom-level traversal.
func (l *List) Max() (int64, bool) {
	var x int32
	for lvl := l.height - 1; lvl >= 0; lvl-- {
		for nx := l.next(x, lvl); nx != 0; nx = l.next(x, lvl) {
			x = nx
			l.steps++
		}
	}
	if x == 0 {
		return 0, false
	}
	return l.nodes[x].key, true
}

// PredKey returns the largest key strictly less than k and whether one
// exists.
func (l *List) PredKey(k int64) (int64, bool) {
	var preds [MaxHeight]int32
	l.findPreds(k, &preds)
	if p := preds[0]; p != 0 {
		return l.nodes[p].key, true
	}
	return 0, false
}

// SuccKey returns the smallest key strictly greater than k and whether
// one exists.
func (l *List) SuccKey(k int64) (int64, bool) {
	var preds [MaxHeight]int32
	var n int32
	if c := l.findPreds(k, &preds); c != 0 {
		n = l.nodes[c].next[0]
		l.steps++
	} else {
		n = l.nodes[preds[0]].next[0]
	}
	if n != 0 {
		return l.nodes[n].key, true
	}
	return 0, false
}

// PopMinKey removes and returns the smallest key (ok=false on empty).
// The minimum's predecessor at every level is the head sentinel, so
// the unlink needs no descent.
func (l *List) PopMinKey() (int64, bool) {
	n := l.nodes[0].next[0]
	if n == 0 {
		return 0, false
	}
	l.steps++
	k := l.nodes[n].key
	var heads [MaxHeight]int32
	l.unlink(n, &heads)
	return k, true
}

// PopMaxKey removes and returns the largest key (ok=false on empty).
func (l *List) PopMaxKey() (int64, bool) {
	k, ok := l.Max()
	if !ok {
		return 0, false
	}
	l.RemoveKey(k)
	return k, true
}

// RangeScanInto appends to arena up to limit keys in the half-open
// interval [lo, hi) in ascending order (limit ≤ 0 = unlimited) and
// returns the grown arena, the number of keys appended, and the
// pagination cursor: hi when the interval was exhausted, else the
// first unreturned key. lo ≥ hi is a legal empty scan. One descent
// reaches lo (the β of the analytical model); the span walk then rides
// the bottom level, each visited node charged one step.
func (l *List) RangeScanInto(lo, hi int64, limit int, arena []int64) ([]int64, int, int64) {
	cursor := hi
	if lo >= hi {
		return arena, 0, cursor
	}
	var preds [MaxHeight]int32
	l.findPreds(lo, &preds)
	nodes := l.nodes
	count := 0
	for n := nodes[preds[0]].next[0]; n != 0 && nodes[n].key < hi; n = nodes[n].next[0] {
		if limit > 0 && count == limit {
			cursor = nodes[n].key
			break
		}
		arena = append(arena, nodes[n].key)
		count++
	}
	l.steps += uint64(count)
	return arena, count, cursor
}

// ApplyBatch executes a batch of operations in ascending key order
// using a finger search: each lookup resumes from the previous
// operation's predecessor frontier instead of the head. This is the
// combining optimization transplanted from the linked-list (package
// seqlist). Section 4.2 argues it cannot help a skip-list much —
// "for any two distant nodes in the skip-list, the paths threads must
// traverse … do not have large overlapping sub-paths" — and the
// experiment `-exp skip-combining` measures exactly how little it
// saves. Results are returned in the batch's original order.
func (l *List) ApplyBatch(ops []Op) []bool {
	results := make([]bool, len(ops))
	if len(ops) == 0 {
		return results
	}
	idx := make([]int, len(ops))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ops[idx[a]].Key < ops[idx[b]].Key })

	// finger starts at the head (0) on every level.
	var finger [MaxHeight]int32
	for _, i := range idx {
		op := ops[i]
		// Resume each level from the finger (whose key is < every
		// remaining key, since keys ascend and fingers only hold
		// predecessors of earlier keys). Mutations invalidate nothing:
		// adds splice after the finger, removes unlink nodes at or
		// after it, so a finger's record is never freed and reused.
		var x int32
		var preds [MaxHeight]int32
		for lvl := l.height - 1; lvl >= 0; lvl-- {
			if f := l.nodes[finger[lvl]].key; f > l.nodes[x].key && f < op.Key {
				x = finger[lvl]
			}
			x = l.walk(x, lvl, op.Key)
			preds[lvl] = x
		}
		c := l.nodes[x].next[0]
		found := c != 0 && l.nodes[c].key == op.Key

		switch op.Kind {
		case Contains:
			results[i] = found
		case Add:
			if !found {
				l.insert(op.Key, &preds)
			}
			results[i] = !found
		case Remove:
			if found {
				l.unlink(c, &preds)
			}
			results[i] = found
		}
		finger = preds
	}
	return results
}

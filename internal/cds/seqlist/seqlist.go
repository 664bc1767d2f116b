// Package seqlist implements a sequential sorted linked-list set with
// integer keys. It is the data structure a flat-combining combiner (or,
// in the simulator, a PIM core) manipulates on behalf of all threads,
// and it supports the paper's combining optimization: applying a whole
// batch of operations in a single traversal (Section 4.1).
package seqlist

// OpKind is the kind of a set operation.
type OpKind uint8

// The three set operations of Section 4, plus the ordered operations
// the sorted list serves natively: range scans, neighbor queries and
// extremum pops.
const (
	Contains OpKind = iota
	Add
	Remove

	// RangeScan collects up to Limit keys in [Key, Hi), ascending.
	RangeScan
	// Pred finds the largest key strictly less than Key.
	Pred
	// Succ finds the smallest key strictly greater than Key.
	Succ
	// PopMin removes and returns the smallest key.
	PopMin
	// PopMax removes and returns the largest key.
	PopMax
)

// String returns the operation name.
func (k OpKind) String() string {
	switch k {
	case Contains:
		return "contains"
	case Add:
		return "add"
	case Remove:
		return "remove"
	case RangeScan:
		return "scan"
	case Pred:
		return "pred"
	case Succ:
		return "succ"
	case PopMin:
		return "popmin"
	case PopMax:
		return "popmax"
	default:
		return "unknown"
	}
}

// Op is one set operation request. Hi and Limit are RangeScan's
// exclusive upper bound and result cap (Limit ≤ 0 = unlimited); other
// kinds ignore them.
type Op struct {
	Kind  OpKind
	Key   int64
	Hi    int64
	Limit int
}

// OpResult is one outcome of an ordered batch. For RangeScan, Scan is
// true and [Start, Start+N) is the op's segment of the shared values
// arena; Value is the pagination cursor (the scan is complete when
// cursor ≥ Hi). For Pred/Succ/PopMin/PopMax, OK reports whether a key
// existed and Value carries it.
type OpResult struct {
	OK    bool
	Value int64
	Start int
	N     int
	Scan  bool
}

type node struct {
	key  int64
	next *node
}

// List is a sorted singly-linked list with a dummy head sentinel. The
// zero value is not ready to use; call New.
//
// The list recycles removed nodes through a free list and keeps batch
// scratch inside itself, so in steady state (removals feeding later
// insertions, batch sizes stabilized) ApplyBatchInto runs without
// heap allocation — a List is owned by one combiner, which must not
// stall on GC while every published op on its shard waits.
type List struct {
	head *node // dummy sentinel, key irrelevant
	size int

	// free chains removed nodes for reuse by the next insertion.
	free *node

	// idx/tmp are ApplyBatchInto's sort scratch, grown to the largest
	// batch seen.
	idx, tmp []int

	// steps counts node visits (pointer dereferences past the
	// sentinel) so tests and the simulator can charge traversal
	// costs; reset with ResetSteps.
	steps uint64
}

// New returns an empty list.
func New() *List {
	return &List{head: &node{}}
}

// Len returns the number of keys in the list.
func (l *List) Len() int { return l.size }

// Steps returns the number of node visits since the last ResetSteps.
func (l *List) Steps() uint64 { return l.steps }

// ResetSteps zeroes the visit counter.
func (l *List) ResetSteps() { l.steps = 0 }

// newNode takes a node from the free list, or allocates when the list
// has never shrunk below its current size.
func (l *List) newNode(key int64, next *node) *node {
	if n := l.free; n != nil {
		l.free = n.next
		n.key, n.next = key, next
		return n
	}
	return &node{key: key, next: next} //pimvet:allow allocfree: only net growth allocates; removed nodes are recycled through the free list
}

// freeNode recycles a node just unlinked from the list.
func (l *List) freeNode(n *node) {
	n.next = l.free
	l.free = n
}

// find returns the last node with key < k, starting from from (which
// must already satisfy from.key < k or be the sentinel).
func (l *List) find(from *node, k int64) *node {
	pred := from
	for pred.next != nil && pred.next.key < k {
		pred = pred.next
		l.steps++
	}
	if pred.next != nil {
		l.steps++ // inspected the stopping node too
	}
	return pred
}

// ContainsKey reports whether k is in the list.
func (l *List) ContainsKey(k int64) bool {
	pred := l.find(l.head, k)
	return pred.next != nil && pred.next.key == k
}

// AddKey inserts k and reports whether it was absent.
func (l *List) AddKey(k int64) bool {
	pred := l.find(l.head, k)
	if pred.next != nil && pred.next.key == k {
		return false
	}
	pred.next = l.newNode(k, pred.next)
	l.size++
	return true
}

// RemoveKey deletes k and reports whether it was present.
func (l *List) RemoveKey(k int64) bool {
	pred := l.find(l.head, k)
	if pred.next == nil || pred.next.key != k {
		return false
	}
	gone := pred.next
	pred.next = gone.next
	l.freeNode(gone)
	l.size--
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

// ApplyBatch executes a batch of point operations in one traversal —
// the combining optimization of Section 4.1 — and returns each op's
// result in the batch's original order. It is ApplyBatchInto with
// freshly allocated results, for callers off the hot path.
func (l *List) ApplyBatch(ops []Op) []bool {
	res := make([]OpResult, len(ops))
	l.ApplyBatchInto(ops, res, nil)
	oks := make([]bool, len(ops))
	for i, r := range res {
		oks[i] = r.OK
	}
	return oks
}

// PopMinKey removes and returns the smallest key (ok=false on empty).
func (l *List) PopMinKey() (int64, bool) {
	n := l.head.next
	if n == nil {
		return 0, false
	}
	l.steps++
	l.head.next = n.next
	k := n.key
	l.freeNode(n)
	l.size--
	return k, true
}

// PopMaxKey removes and returns the largest key (ok=false on empty).
func (l *List) PopMaxKey() (int64, bool) {
	if l.head.next == nil {
		return 0, false
	}
	pred := l.head
	l.steps++
	for pred.next.next != nil {
		pred = pred.next
		l.steps++
	}
	gone := pred.next
	pred.next = nil
	k := gone.key
	l.freeNode(gone)
	l.size--
	return k, true
}

// ApplyBatchInto executes a batch of operations — point ops mixed with
// any of the ordered kinds — in one shared traversal, the combining
// optimization of Section 4.1. It appends scan keys to arena and
// returns the (possibly grown) arena; len(res) must equal len(ops).
// The serialization it answers for is: all PopMin/PopMax in batch
// order first, then the remaining ops in ascending key order (ties in
// batch order), so the keyed ops cost one walk to the largest
// requested key instead of one walk per op. Reordering is
// linearizable: the batch is concurrent, so any serialization is
// legal, and same-key ops keep their relative order. A scan's descent
// to lo rides the shared finger; only its own span walk is private.
//
// A scan with Hi ≤ Key is a legal empty scan (complete, cursor = Hi).
// When a scan hits its limit, the cursor is the first unreturned key,
// so paginating clients resume exactly there.
//
// This is the allocation-free form a combiner calls every pass. Sort
// scratch and freed nodes are recycled inside the List, so a batch no
// larger than any before it, against a list no larger than its
// high-water mark, allocates nothing beyond arena growth.
//
//pimvet:allocfree //pimvet:nonblocking
func (l *List) ApplyBatchInto(ops []Op, res []OpResult, arena []int64) []int64 {
	if len(ops) == 0 {
		return arena
	}
	// Extremum pops go first: they touch the ends of the list, not a
	// key position, so serving them before the sweep keeps the finger
	// invariant (monotone key order) intact.
	keyed := 0
	for i := range ops {
		switch ops[i].Kind {
		case PopMin:
			v, ok := l.PopMinKey()
			res[i] = OpResult{OK: ok, Value: v}
		case PopMax:
			v, ok := l.PopMaxKey()
			res[i] = OpResult{OK: ok, Value: v}
		default:
			keyed++
		}
	}
	if keyed == 0 {
		return arena
	}
	if cap(l.idx) < len(ops) {
		l.idx = make([]int, len(ops)) //pimvet:allow allocfree: amortized grow to the largest batch; steady state reuses
		l.tmp = make([]int, len(ops)) //pimvet:allow allocfree: amortized grow to the largest batch; steady state reuses
	}
	idx := l.idx[:keyed]
	j := 0
	for i := range ops {
		if ops[i].Kind != PopMin && ops[i].Kind != PopMax {
			idx[j] = i
			j++
		}
	}
	stableSortByKey(ops, idx, l.tmp[:keyed])

	pred := l.head
	for _, i := range idx {
		op := ops[i]
		pred = l.find(pred, op.Key)
		switch op.Kind {
		case Contains:
			res[i] = OpResult{OK: pred.next != nil && pred.next.key == op.Key}
		case Add:
			if pred.next != nil && pred.next.key == op.Key {
				res[i] = OpResult{OK: false}
			} else {
				pred.next = l.newNode(op.Key, pred.next)
				l.size++
				res[i] = OpResult{OK: true}
			}
		case Remove:
			if pred.next != nil && pred.next.key == op.Key {
				gone := pred.next
				pred.next = gone.next
				l.freeNode(gone)
				l.size--
				res[i] = OpResult{OK: true}
			} else {
				res[i] = OpResult{OK: false}
			}
		case Pred:
			if pred != l.head {
				res[i] = OpResult{OK: true, Value: pred.key}
			} else {
				res[i] = OpResult{OK: false}
			}
		case Succ:
			n := pred.next
			if n != nil && n.key == op.Key {
				n = n.next
				l.steps++
			}
			if n != nil {
				res[i] = OpResult{OK: true, Value: n.key}
			} else {
				res[i] = OpResult{OK: false}
			}
		case RangeScan:
			start := len(arena)
			cursor := op.Hi
			count := 0
			for cur := pred.next; cur != nil && cur.key < op.Hi; cur = cur.next {
				if op.Limit > 0 && count == op.Limit {
					cursor = cur.key
					break
				}
				arena = append(arena, cur.key) //pimvet:allow allocfree: amortized arena grow to the largest scan pass; steady state reuses
				count++
				l.steps++
			}
			res[i] = OpResult{OK: true, Value: cursor, Start: start, N: count, Scan: true}
		}
	}
	return arena
}

// stableSortByKey sorts idx so that ops[idx[i]].Key ascends, preserving
// batch order between equal keys: bottom-up merge sort into tmp,
// taking from the left run on ties. Equivalent ordering to
// sort.SliceStable with a key comparison, without boxing the slice
// into an interface or allocating the comparison closure per call.
func stableSortByKey(ops []Op, idx, tmp []int) {
	n := len(idx)
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo+width < n; lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if hi > n {
				hi = n
			}
			copy(tmp[lo:hi], idx[lo:hi])
			i, j := lo, mid
			for k := lo; k < hi; k++ {
				switch {
				case i >= mid:
					idx[k] = tmp[j]
					j++
				case j >= hi:
					idx[k] = tmp[i]
					i++
				case ops[tmp[j]].Key < ops[tmp[i]].Key:
					idx[k] = tmp[j]
					j++
				default:
					idx[k] = tmp[i]
					i++
				}
			}
		}
	}
}

// Keys returns the keys in ascending order (for tests).
func (l *List) Keys() []int64 {
	keys := make([]int64, 0, l.size)
	for n := l.head.next; n != nil; n = n.next {
		keys = append(keys, n.key)
	}
	return keys
}

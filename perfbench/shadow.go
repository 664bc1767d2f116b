package main

import (
	"errors"
	"fmt"

	"pimds/internal/wire"
)

// shadow is one connection's model of the keys it owns: a bitset over
// the keyspace in which only that connection's keys are ever touched.
// No other connection mutates them, so every point result and the
// owned part of every scan page is exactly predictable.
type shadow struct {
	bits []uint64
	conn int
}

func newShadow(space int64, conn int) *shadow {
	return &shadow{bits: make([]uint64, (space+63)/64), conn: conn}
}

func (s *shadow) has(k int64) bool { return s.bits[k>>6]&(1<<(k&63)) != 0 }

func (s *shadow) set(k int64, on bool) {
	if on {
		s.bits[k>>6] |= 1 << (k & 63)
	} else {
		s.bits[k>>6] &^= 1 << (k & 63)
	}
}

// apply executes a point op on the shadow and returns the OK the server
// must answer with.
func (s *shadow) apply(op wire.Op) bool {
	present := s.has(op.Key)
	switch op.Kind {
	case wire.Add:
		s.set(op.Key, true)
		return !present
	case wire.Remove:
		s.set(op.Key, false)
		return present
	}
	return present
}

// appendOwned appends the owned keys present in [lo, hi), ascending.
func (s *shadow) appendOwned(dst []int64, lo, hi int64) []int64 {
	k := lo - lo%conns + int64(s.conn)
	if k < lo {
		k += conns
	}
	for ; k < hi; k += conns {
		if s.has(k) {
			dst = append(dst, k)
		}
	}
	return dst
}

// expect is what one op of the outstanding frame must return.
type expect struct {
	ok         bool
	scan       bool
	lo, hi     int64 // scan bounds, hi clipped to the keyspace
	start, end int   // scan: the owned keys it must return, in frameCheck.keys
}

// frameCheck holds the expected results of one outstanding frame. Its
// expectations are taken from the shadow in frame order when the frame
// is built, which is the order the server applies a frame's ops on each
// shard; ops on different shards touch disjoint keys, so the order
// between shards does not matter.
type frameCheck struct {
	seq  uint64
	exp  []expect
	keys []int64
	seen []bool
	got  int

	// Counted over the connection's life, not reset per frame.
	nonOK      int64
	lost       int64
	mismatches int64
	firstErr   error
}

// opID packs the frame sequence and the op's index in its frame.
func opID(seq uint64, i int) uint64 { return seq<<16 | uint64(i) }

// reset starts a new frame of n ops.
func (f *frameCheck) reset(seq uint64, n int) {
	f.seq, f.got = seq, 0
	f.exp, f.keys = f.exp[:0], f.keys[:0]
	if cap(f.seen) < n {
		f.seen = make([]bool, n)
	}
	f.seen = f.seen[:n]
	for i := range f.seen {
		f.seen[i] = false
	}
}

// add records op's expectation, advancing the shadow past it.
func (f *frameCheck) add(sh *shadow, op wire.Op, space int64) {
	if op.Kind != wire.RangeScan {
		f.exp = append(f.exp, expect{ok: sh.apply(op)})
		return
	}
	hi := op.Hi
	if hi > space {
		hi = space
	}
	start := len(f.keys)
	f.keys = sh.appendOwned(f.keys, op.Key, hi)
	f.exp = append(f.exp, expect{ok: true, scan: true, lo: op.Key, hi: hi, start: start, end: len(f.keys)})
}

var errBadID = errors.New("response for an op not in the outstanding frame")

// check verifies one result against its expectation. A non-OK status
// counts as an error, not a mismatch: the op was refused, not answered
// wrongly.
func (f *frameCheck) check(res *wire.Result, conn int) {
	i := int(res.ID & 0xffff)
	if res.ID>>16 != f.seq || i >= len(f.exp) || f.seen[i] {
		f.fail(fmt.Errorf("%w: id %#x", errBadID, res.ID))
		return
	}
	f.seen[i] = true
	f.got++
	if res.Status != wire.StatusOK {
		f.nonOK++
		return
	}
	e := &f.exp[i]
	if !e.scan {
		if res.OK != e.ok || len(res.Values) != 0 {
			f.fail(fmt.Errorf("op %d of frame %d: got ok=%v, want %v", i, f.seq, res.OK, e.ok))
		}
		return
	}
	if err := checkPage(res, e, f.keys[e.start:e.end], conn); err != nil {
		f.fail(fmt.Errorf("scan %d of frame %d: %v", i, f.seq, err))
	}
}

// checkPage verifies a scan page: the cursor lies in (lo, hi], the keys
// ascend strictly inside [lo, cursor), and the keys the connection owns
// are exactly the shadow's owned keys below the cursor.
func checkPage(res *wire.Result, e *expect, want []int64, conn int) error {
	cursor := res.Value
	if !res.OK || cursor <= e.lo || cursor > e.hi {
		return fmt.Errorf("cursor %d outside (%d, %d]", cursor, e.lo, e.hi)
	}
	prev := e.lo - 1
	j := 0
	for _, k := range res.Values {
		if k <= prev || k >= cursor {
			return fmt.Errorf("key %d out of order or outside [%d, %d)", k, e.lo, cursor)
		}
		prev = k
		if owner(k) != conn {
			continue
		}
		if j >= len(want) || want[j] != k {
			return fmt.Errorf("owned key %d not in the shadow", k)
		}
		j++
	}
	if j < len(want) && want[j] < cursor {
		return fmt.Errorf("owned key %d missing from the page", want[j])
	}
	return nil
}

// missing returns how many ops of the frame got no response.
func (f *frameCheck) missing() int { return len(f.exp) - f.got }

func (f *frameCheck) fail(err error) {
	f.mismatches++
	if f.firstErr == nil {
		f.firstErr = err
	}
}

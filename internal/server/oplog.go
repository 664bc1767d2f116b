package server

import (
	"sync"

	"pimds/internal/linearize"
	"pimds/internal/wire"
)

// OpLog optionally records every operation the server applies, as
// linearize.Op intervals suitable for internal/linearize: Start is
// stamped by the reader goroutine when the op is decoded (before it is
// published to a shard) and End by the combiner right after the batch
// executes, so the true linearization point always lies inside the
// recorded interval. Client is the connection id; with one outstanding
// op per connection (the closed-loop pattern the linearizability tests
// use) that matches the checker's per-client program-order assumption.
//
// The log exists for testing and auditing; recording takes a mutex per
// batch, so leave it nil in throughput runs.
type OpLog struct {
	mu  sync.Mutex
	ops []linearize.Op
}

// NewOpLog returns an empty log.
func NewOpLog() *OpLog { return &OpLog{} }

// record appends one applied batch. A nil log is a no-op.
func (l *OpLog) record(batch []pendingOp, results []wire.Result, end int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range batch {
		p := &batch[i]
		l.ops = append(l.ops, historyOp(p.op, results[i], p.start, end, p.conn.id))
	}
}

// historyOp maps one operation and its result onto the checker's
// vocabulary over the interval [start, end]. The server log passes the
// op as the combiner ran it; a client passes the op as sent.
func historyOp(o wire.Op, res wire.Result, start, end int64, client int) linearize.Op {
	op := linearize.Op{
		Start:  start,
		End:    end,
		Client: client,
		Input:  o.Key,
		OK:     res.OK,
	}
	switch o.Kind {
	case wire.Contains:
		op.Action = linearize.ActContains
	case wire.Add:
		op.Action = linearize.ActAdd
	case wire.Remove:
		op.Action = linearize.ActRemove
	case wire.Enqueue:
		op.Action = linearize.ActEnqueue
	case wire.Dequeue:
		op.Action = linearize.ActDequeue
		op.Output = res.Value
	case wire.Push:
		op.Action = linearize.ActPush
	case wire.Pop:
		op.Action = linearize.ActPop
		op.Output = res.Value
	case wire.RangeScan:
		// The server log's op carries the reader-clamped Hi and Limit —
		// the bounds the scan actually ran with. Outputs aliases the
		// combiner's per-pass copy of the scan values, which is never
		// mutated after delivery.
		op.Action = linearize.ActScan
		op.Input2 = o.Hi
		op.Limit = int(o.Limit)
		op.Output = res.Value
		op.Outputs = res.Values
	case wire.Pred:
		op.Action = linearize.ActPred
		op.Output = res.Value
	case wire.Succ:
		op.Action = linearize.ActSucc
		op.Output = res.Value
	case wire.PopMin:
		op.Action = linearize.ActPopMin
		op.Output = res.Value
	case wire.PopMax:
		op.Action = linearize.ActPopMax
		op.Output = res.Value
	}
	return op
}

// Ops returns a copy of the recorded history. Call at quiescence (after
// Shutdown) for a complete log.
func (l *OpLog) Ops() []linearize.Op {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]linearize.Op(nil), l.ops...)
}

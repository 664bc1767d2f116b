package prof

// The six-component latency taxonomy is shared between the two
// profilers in this repo: the virtual-time profiler in this package
// (which partitions a simulated request's picoseconds) and pimserve's
// wall-clock span recorder in internal/server (which partitions a
// network request's nanoseconds). Both produce breakdowns with the
// same shape — six mutually exclusive components that tile the
// request's lifetime, so each breakdown sums exactly to the measured
// end-to-end latency — and each wall-clock component has a
// virtual-time analogue that absorbs the same cause of delay. This
// file is the single declaration of that correspondence; server code
// imports these names rather than redeclaring them, so the two
// taxonomies cannot drift apart silently.

// ServerComponent indexes the wall-clock taxonomy pimserve's span
// recorder attributes request latency to. Declaration order is the
// order a request traverses the server.
type ServerComponent uint8

const (
	// SrvReadDecode: reader-side time — frame decode plus, for ops
	// late in a frame, waiting behind earlier ops' (possibly blocking)
	// publication. Analogue of CompService: per-request handling
	// overhead outside the structure itself.
	SrvReadDecode ServerComponent = iota
	// SrvQueueWait: waiting in the shard's bounded publication queue
	// for the combiner to drain it. Analogue of CompQueueing.
	SrvQueueWait
	// SrvCombineWait: picked up by the combiner but waiting while the
	// batch finishes its greedy, non-blocking gather — the cost
	// combining trades against per-op dispatch. Analogue of
	// CompCombiner.
	SrvCombineWait
	// SrvApply: the combiner's batch executing against the sequential
	// structure; shared batch work appears in every member's critical
	// path, exactly like the simulator's combined-batch accounting.
	// Analogue of CompMemory + CompAtomic: the structure work proper.
	SrvApply
	// SrvRespEncode: from batch completion to the response frame being
	// encoded, including waiting in the connection's writer queue.
	// Analogue of CompService on the reply path.
	SrvRespEncode
	// SrvWriteFlush: the encoded frame flushing to the socket — the
	// wall-clock analogue of CompMessage, time on the wire's doorstep.
	SrvWriteFlush

	// NumServerComponents is the taxonomy's cardinality; it equals the
	// virtual-time taxonomy's by construction.
	NumServerComponents = 6
)

var srvCompNames = [NumServerComponents]string{
	"read_decode", "queue_wait", "combine_wait", "apply", "resp_encode", "write_flush",
}

// String returns the component's stable snake_case name as used in
// metric names, span exports and reports.
func (c ServerComponent) String() string {
	if int(c) < len(srvCompNames) {
		return srvCompNames[c]
	}
	return "unknown"
}

// ServerComponents lists all wall-clock component names in traversal
// order.
func ServerComponents() []string {
	out := make([]string, NumServerComponents)
	copy(out, srvCompNames[:])
	return out
}

// Analog returns the virtual-time component that absorbs the same
// cause of latency in the simulator's attribution.
func (c ServerComponent) Analog() Component {
	switch c {
	case SrvReadDecode, SrvRespEncode:
		return CompService
	case SrvQueueWait:
		return CompQueueing
	case SrvCombineWait:
		return CompCombiner
	case SrvApply:
		return CompMemory
	case SrvWriteFlush:
		return CompMessage
	}
	return CompService
}

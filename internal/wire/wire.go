// Package wire defines the compact length-prefixed binary protocol
// spoken between pimload (or any client) and pimserve. It is the
// network analogue of the flat-combining publication list: a client
// publishes a *batch* of operations in one request frame, and the
// server answers with one or more response frames carrying the results
// tagged by request id, so responses for one frame may arrive split
// (the server groups them by combiner pass) or interleaved with other
// frames' results.
//
// Frame layout (all integers little-endian):
//
//	uint32  payload length (bytes that follow; ≤ MaxPayload)
//	uint8   frame type
//	uint16  record count (≤ MaxOpsPerFrame)
//	...     trace context (FrameRequestTraced, FrameRequestV2): trace id uint64 | flags uint8
//	...     count records
//
// Request record (17 bytes):     id uint64 | kind uint8 | key int64
// Request V2 record (27 bytes):  id uint64 | kind uint8 | key int64 | hi int64 | limit uint16
// Response record (18 bytes):    id uint64 | status uint8 | ok uint8 | value int64
// Var response record (20+8n):   id uint64 | status uint8 | ok uint8 | value int64 |
//
//	nvals uint16 | nvals × int64
//
// The fixed-size frames (FrameRequest/FrameRequestTraced/FrameResponse)
// are the point-op fast path and carry only Kind+Key per op. Ordered
// operations (RangeScan/Pred/Succ/PopMin/PopMax) need the extra lo..hi
// bound and result cardinality, so batches containing them travel in
// FrameRequestV2 (which always carries a trace-context slot; the zero
// trace id means untraced) and come back in FrameResponseVar, whose
// records are count-prefixed and variable-length.
//
// Request ids are chosen by the client and echoed verbatim; the server
// never interprets them beyond matching a result to its op. Decoding
// is strict: a frame whose payload length does not exactly match its
// declared record count (walking variable records one by one for
// FrameResponseVar) is rejected, so a desynchronized stream fails
// fast instead of smearing garbage into later frames.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// OpKind is the operation selector carried on the wire. The set kinds
// (Contains/Add/Remove) drive the list, skip and hash structures; the
// queue and stack kinds drive their respective structures; the ordered
// kinds (RangeScan/Pred/Succ/PopMin/PopMax) drive structures that keep
// their keys sorted (list, skip).
type OpKind uint8

// Wire operation kinds.
const (
	Contains OpKind = iota
	Add
	Remove
	Enqueue
	Dequeue
	Push
	Pop

	// RangeScan returns up to Limit keys in the half-open interval
	// [Key, Hi), in ascending order. The result's Value is the resume
	// cursor: the scan is complete when cursor ≥ Hi, otherwise the
	// client paginates by re-issuing with Key = cursor. On a
	// range-partitioned server a single scan never crosses a shard
	// boundary — Hi is clamped to the owning shard's upper bound and
	// the cursor walks the client into the next shard naturally.
	RangeScan
	// Pred returns the largest key strictly less than Key (OK=false
	// when none exists).
	Pred
	// Succ returns the smallest key strictly greater than Key
	// (OK=false when none exists).
	Succ
	// PopMin removes and returns the smallest key (OK=false on empty).
	PopMin
	// PopMax removes and returns the largest key (OK=false on empty).
	PopMax

	numKinds // sentinel, not a valid kind
)

// NumKinds is the number of defined operation kinds; capability tables
// index by kind.
const NumKinds = int(numKinds)

// Valid reports whether k is a defined operation kind.
func (k OpKind) Valid() bool { return k < numKinds }

// Mutating reports whether k can change structure state. Only mutating
// ops need to reach a write-ahead log: Contains/RangeScan/Pred/Succ
// leave the structure untouched, and the conditional mutators (a failed
// Add, a Pop on empty) replay as deterministic no-ops.
func (k OpKind) Mutating() bool {
	switch k {
	case Add, Remove, Enqueue, Dequeue, Push, Pop, PopMin, PopMax:
		return true
	}
	return false
}

// String names the kind.
func (k OpKind) String() string {
	switch k {
	case Contains:
		return "contains"
	case Add:
		return "add"
	case Remove:
		return "remove"
	case Enqueue:
		return "enqueue"
	case Dequeue:
		return "dequeue"
	case Push:
		return "push"
	case Pop:
		return "pop"
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
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Status is the per-operation result code.
type Status uint8

// Response status codes.
const (
	// StatusOK: the operation executed; OK/Value carry its result.
	StatusOK Status = iota
	// StatusBadKind: the kind is undefined or not supported by the
	// structure the server is serving (e.g. Push to a queue server).
	StatusBadKind
	// StatusBadKey: the key is outside the server's key space.
	StatusBadKey
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBadKind:
		return "bad-kind"
	case StatusBadKey:
		return "bad-key"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Frame types.
const (
	FrameRequest  uint8 = 1
	FrameResponse uint8 = 2
	// FrameRequestTraced is a request frame carrying a trace context
	// (trace ID + flags) between the record count and the records, so
	// clients can originate distributed traces that the server's span
	// recorder picks up. Encoding is canonical: a traced frame with a
	// zero trace ID or undefined flag bits is rejected — trace-less
	// requests must use FrameRequest.
	FrameRequestTraced uint8 = 3
	// FrameRequestV2 is the extended request frame for batches carrying
	// ordered ops: 27-byte records with the Hi bound and result Limit,
	// plus an always-present trace-context slot (trace id 0 = untraced;
	// a set sampled bit with a zero id is rejected, so every accepted
	// payload re-encodes byte-identically).
	FrameRequestV2 uint8 = 4
	// FrameResponseVar is the variable-length response frame: each
	// record carries a uint16 value count followed by that many int64
	// values (a range scan's keys). Servers use it for combiner passes
	// whose results carry values; fixed-size results keep travelling in
	// FrameResponse.
	FrameResponseVar uint8 = 5
)

// TraceContext is the per-frame trace context a client attaches to a
// traced request frame. The zero TraceContext means "no trace".
type TraceContext struct {
	// TraceID identifies the trace. Zero is reserved for "no trace"
	// and is not encodable.
	TraceID uint64
	// Sampled asks the server to record a span breakdown for every
	// operation in the frame. An unsampled context still propagates
	// the ID (for log correlation) without span cost.
	Sampled bool
}

// Valid reports whether tc can be carried on the wire.
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 }

// flags encodes the context's flag byte (bit 0 = sampled; the rest
// must be zero).
func (tc TraceContext) flags() byte {
	if tc.Sampled {
		return 1
	}
	return 0
}

// Op is one client operation. For Enqueue/Push, Key is the value; for
// Dequeue/Pop it is ignored. For RangeScan, Key is the inclusive lower
// bound, Hi the exclusive upper bound, and Limit caps the result
// cardinality (0 = server default). Hi and Limit travel only in
// FrameRequestV2; the fixed-size encoders reject ops that set them.
type Op struct {
	ID    uint64
	Kind  OpKind
	Key   int64
	Hi    int64
	Limit uint16
}

// Result is one operation outcome. OK is the structure's boolean
// answer (present / was-absent / pop-nonempty …); Value carries the
// dequeued or popped value when applicable — for RangeScan it is the
// pagination cursor. Values carries a scan's keys; a non-nil Values
// (even empty) routes the result through FrameResponseVar, and the
// fixed-size encoder rejects it.
type Result struct {
	ID     uint64
	Status Status
	OK     bool
	Value  int64
	Values []int64
}

// Record and frame size constants.
const (
	opSize      = 8 + 1 + 8         // id, kind, key
	opV2Size    = 8 + 1 + 8 + 8 + 2 // id, kind, key, hi, limit
	resultSize  = 8 + 1 + 1 + 8     // id, status, ok, value
	varBaseSize = resultSize + 2    // fixed prefix of a var record (before the values)
	headerSize  = 1 + 2             // type, count
	traceSize   = 8 + 1             // trace id, flags (traced and V2 requests)

	// maxValsPerRecord is what the uint16 count prefix can express.
	maxValsPerRecord = 1<<16 - 1

	// MaxOpsPerFrame bounds the records in one frame; larger batches
	// must be split across frames.
	MaxOpsPerFrame = 4096

	// OpRecordSize is the encoded size of one op record as produced by
	// AppendOp — the same 27-byte layout FrameRequestV2 carries.
	// Exported so other framings (the WAL's batch records) can size
	// buffers and index records without re-deriving the layout.
	OpRecordSize = opV2Size

	// MaxScanLimit is the largest result cardinality the server will
	// serve for one RangeScan; a request Limit of 0 (or anything
	// larger) is clamped to it. Bounding per-op results keeps combiner
	// passes and response frames small — clients page through bigger
	// ranges with the cursor.
	MaxScanLimit = 512

	// MaxPayload is the largest legal frame payload. A peer announcing
	// more is desynchronized or hostile and the connection should be
	// dropped. Variable-length response frames are additionally bounded
	// by it at encode time: AppendResponseVar refuses a batch whose
	// encoding would exceed it, and writers split such batches.
	MaxPayload = 1 << 20
)

// VarResultSize returns the encoded size in bytes of one variable
// response record, for writers packing results into frames under the
// MaxPayload budget.
//
//pimvet:allocfree //pimvet:nonblocking
func VarResultSize(r Result) int { return varBaseSize + 8*len(r.Values) }

// Protocol errors.
var (
	// ErrFrameTooLarge: the length prefix exceeds MaxPayload.
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxPayload")
	// ErrMalformed: the payload contradicts its own header.
	ErrMalformed = errors.New("wire: malformed frame")
	// ErrTooManyOps: an encoder was handed more than MaxOpsPerFrame
	// records.
	ErrTooManyOps = errors.New("wire: too many records for one frame")
	// ErrBadTrace: an encoder was handed an invalid (zero-ID) trace
	// context for a traced frame.
	ErrBadTrace = errors.New("wire: traced frame requires a nonzero trace id")
	// ErrNeedsV2: a fixed-size request encoder was handed an op with
	// ordered fields (Hi/Limit) that the 17-byte record cannot carry.
	ErrNeedsV2 = errors.New("wire: op carries ordered fields; use AppendRequestV2")
	// ErrNeedsVar: the fixed-size response encoder was handed a result
	// carrying Values; use AppendResponseVar.
	ErrNeedsVar = errors.New("wire: result carries values; use AppendResponseVar")
	// ErrTooManyValues: one result carries more values than the uint16
	// count prefix can express.
	ErrTooManyValues = errors.New("wire: too many values for one record")
)

// Static pre-wrapped malformed-frame errors. The decode paths are
// marked //pimvet:allocfree, and building these with fmt.Errorf at the
// rejection site allocates; constructing them once here keeps rejection
// as cheap as acceptance (a desynchronized peer can hit these at frame
// rate). The offending byte values the old messages interpolated are
// recoverable from the frame itself; callers match with errors.Is.
var (
	errShortPayload    = fmt.Errorf("%w: payload length below header size", ErrMalformed)
	errTruncatedHeader = fmt.Errorf("%w: truncated header", ErrMalformed)
	errWrongFrameType  = fmt.Errorf("%w: unexpected frame type", ErrMalformed)
	errCountRange      = fmt.Errorf("%w: record count exceeds MaxOpsPerFrame", ErrMalformed)
	errSizeMismatch    = fmt.Errorf("%w: payload size does not match the declared record count", ErrMalformed)
	errBadTraceFlags   = fmt.Errorf("%w: trace flags byte must be 0 or 1", ErrMalformed)
	errZeroTraceID     = fmt.Errorf("%w: traced frame with zero trace id", ErrMalformed)
	errBadStatus       = fmt.Errorf("%w: undefined status byte", ErrMalformed)
	errBadOKByte       = fmt.Errorf("%w: ok byte must be 0 or 1", ErrMalformed)
	errVarTruncated    = fmt.Errorf("%w: variable record truncated", ErrMalformed)
	errVarTrailing     = fmt.Errorf("%w: trailing bytes after the last variable record", ErrMalformed)
	errOpTruncated     = fmt.Errorf("%w: op record truncated", ErrMalformed)
	errBadOpKind       = fmt.Errorf("%w: undefined op kind", ErrMalformed)
)

// AppendOp appends the canonical 27-byte encoding of one op — the V2
// record layout — and returns the extended slice. This is the unit
// encoding shared by FrameRequestV2 and the WAL's batch records.
// Zero-alloc when buf has capacity.
//
//pimvet:allocfree //pimvet:nonblocking
func AppendOp(buf []byte, op Op) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, op.ID)
	buf = append(buf, byte(op.Kind))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(op.Key))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(op.Hi))
	buf = binary.LittleEndian.AppendUint16(buf, op.Limit)
	return buf
}

// DecodeOp decodes one op record produced by AppendOp from the front
// of b. Strict: the kind byte must name a defined op, so every accepted
// record re-encodes byte-identically. Zero-alloc.
//
//pimvet:allocfree //pimvet:nonblocking
func DecodeOp(b []byte) (Op, error) {
	if len(b) < OpRecordSize {
		return Op{}, errOpTruncated
	}
	op := Op{
		ID:    binary.LittleEndian.Uint64(b),
		Kind:  OpKind(b[8]),
		Key:   int64(binary.LittleEndian.Uint64(b[9:])),
		Hi:    int64(binary.LittleEndian.Uint64(b[17:])),
		Limit: binary.LittleEndian.Uint16(b[25:]),
	}
	if !op.Kind.Valid() {
		return Op{}, errBadOpKind
	}
	return op, nil
}

// AppendRequest appends one request frame carrying ops to buf and
// returns the extended slice. len(ops) must be in [0, MaxOpsPerFrame].
// Zero-alloc when buf has capacity: clients reuse one buffer per
// connection.
//
//pimvet:allocfree //pimvet:nonblocking
func AppendRequest(buf []byte, ops []Op) ([]byte, error) {
	if len(ops) > MaxOpsPerFrame {
		return buf, ErrTooManyOps
	}
	for _, op := range ops {
		if op.Hi != 0 || op.Limit != 0 {
			return buf, ErrNeedsV2
		}
	}
	payload := headerSize + len(ops)*opSize
	buf = appendFrameHeader(buf, payload, FrameRequest, len(ops))
	for _, op := range ops {
		buf = binary.LittleEndian.AppendUint64(buf, op.ID)
		buf = append(buf, byte(op.Kind))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(op.Key))
	}
	return buf, nil
}

// AppendRequestTraced appends one traced request frame carrying ops and
// the trace context tc to buf. tc must be Valid (nonzero trace ID);
// callers without a trace use AppendRequest.
//
//pimvet:allocfree //pimvet:nonblocking
func AppendRequestTraced(buf []byte, ops []Op, tc TraceContext) ([]byte, error) {
	if len(ops) > MaxOpsPerFrame {
		return buf, ErrTooManyOps
	}
	if !tc.Valid() {
		return buf, ErrBadTrace
	}
	for _, op := range ops {
		if op.Hi != 0 || op.Limit != 0 {
			return buf, ErrNeedsV2
		}
	}
	payload := headerSize + traceSize + len(ops)*opSize
	buf = appendFrameHeader(buf, payload, FrameRequestTraced, len(ops))
	buf = binary.LittleEndian.AppendUint64(buf, tc.TraceID)
	buf = append(buf, tc.flags())
	for _, op := range ops {
		buf = binary.LittleEndian.AppendUint64(buf, op.ID)
		buf = append(buf, byte(op.Kind))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(op.Key))
	}
	return buf, nil
}

// AppendRequestV2 appends one extended request frame carrying ops and
// the (possibly zero) trace context tc. The V2 record carries the
// ordered fields (Hi, Limit) every fixed record drops, so batches
// containing ordered ops must travel here. A zero tc encodes as trace
// id 0 ("untraced"); a sampled context with a zero id is rejected so
// decode/re-encode stays canonical. Zero-alloc when buf has capacity.
//
//pimvet:allocfree //pimvet:nonblocking
func AppendRequestV2(buf []byte, ops []Op, tc TraceContext) ([]byte, error) {
	if len(ops) > MaxOpsPerFrame {
		return buf, ErrTooManyOps
	}
	if tc.TraceID == 0 && tc.Sampled {
		return buf, ErrBadTrace
	}
	payload := headerSize + traceSize + len(ops)*opV2Size
	buf = appendFrameHeader(buf, payload, FrameRequestV2, len(ops))
	buf = binary.LittleEndian.AppendUint64(buf, tc.TraceID)
	buf = append(buf, tc.flags())
	for _, op := range ops {
		buf = AppendOp(buf, op)
	}
	return buf, nil
}

// AppendResponse appends one response frame carrying results to buf
// and returns the extended slice. Zero-alloc when buf has capacity: the
// server's writer goroutines reuse one buffer per connection.
//
//pimvet:allocfree //pimvet:nonblocking
func AppendResponse(buf []byte, results []Result) ([]byte, error) {
	if len(results) > MaxOpsPerFrame {
		return buf, ErrTooManyOps
	}
	for _, res := range results {
		if res.Values != nil {
			return buf, ErrNeedsVar
		}
	}
	payload := headerSize + len(results)*resultSize
	buf = appendFrameHeader(buf, payload, FrameResponse, len(results))
	for _, res := range results {
		buf = binary.LittleEndian.AppendUint64(buf, res.ID)
		buf = append(buf, byte(res.Status))
		ok := byte(0)
		if res.OK {
			ok = 1
		}
		buf = append(buf, ok)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(res.Value))
	}
	return buf, nil
}

// AppendResponseVar appends one variable-length response frame carrying
// results (scan results with their Values, or any mix — a result
// without values encodes with nvals 0). The encoding must fit in
// MaxPayload; writers split larger batches, tracking size with
// VarResultSize. Zero-alloc when buf has capacity.
//
//pimvet:allocfree //pimvet:nonblocking
func AppendResponseVar(buf []byte, results []Result) ([]byte, error) {
	if len(results) > MaxOpsPerFrame {
		return buf, ErrTooManyOps
	}
	payload := headerSize
	for _, res := range results {
		if len(res.Values) > maxValsPerRecord {
			return buf, ErrTooManyValues
		}
		payload += VarResultSize(res)
	}
	if payload > MaxPayload {
		return buf, ErrFrameTooLarge
	}
	buf = appendFrameHeader(buf, payload, FrameResponseVar, len(results))
	for _, res := range results {
		buf = binary.LittleEndian.AppendUint64(buf, res.ID)
		buf = append(buf, byte(res.Status))
		ok := byte(0)
		if res.OK {
			ok = 1
		}
		buf = append(buf, ok)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(res.Value))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(res.Values)))
		for _, v := range res.Values {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	}
	return buf, nil
}

// AppendResponses encodes results into as many response frames as
// needed, appended back to back to buf, and reports how many frames it
// wrote. Chunks where no result carries values use the fixed encoding
// (the point-op fast path, resultSize bytes per record); a chunk with
// any values uses the variable encoding. Chunks are split so no frame
// exceeds MaxPayload or MaxOpsPerFrame records. Zero-alloc when buf has
// capacity.
//
//pimvet:allocfree //pimvet:nonblocking
func AppendResponses(buf []byte, results []Result) ([]byte, int, error) {
	frames := 0
	for len(results) > 0 {
		max := len(results)
		if max > MaxOpsPerFrame {
			max = MaxOpsPerFrame
		}
		size := headerSize
		hasVals := false
		end := 0
		for end < max {
			rs := VarResultSize(results[end])
			if size+rs > MaxPayload {
				break
			}
			if len(results[end].Values) > maxValsPerRecord {
				return buf, frames, ErrTooManyValues
			}
			size += rs
			if results[end].Values != nil {
				hasVals = true
			}
			end++
		}
		if end == 0 {
			// A single record larger than MaxPayload; unreachable while
			// maxValsPerRecord values fit, but fail loudly if the bounds
			// ever diverge.
			return buf, frames, ErrFrameTooLarge
		}
		var err error
		if hasVals {
			buf, err = AppendResponseVar(buf, results[:end])
		} else {
			buf, err = AppendResponse(buf, results[:end])
		}
		if err != nil {
			return buf, frames, err
		}
		frames++
		results = results[end:]
	}
	return buf, frames, nil
}

//pimvet:allocfree //pimvet:nonblocking
func appendFrameHeader(buf []byte, payload int, typ uint8, count int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(payload))
	buf = append(buf, typ)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(count))
	return buf
}

// ReadFrame reads one length-prefixed payload from r, reusing buf when
// it is large enough. It returns io.EOF only on a clean frame
// boundary; a stream that dies mid-frame yields io.ErrUnexpectedEOF.
// The returned slice aliases buf (or its replacement) and is valid
// until the next call with the same buffer. (Not //pimvet:nonblocking:
// reading from r parks on the socket by design — this is the reader
// goroutine's blocking point.)
//
//pimvet:allocfree
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	// The length prefix is read into the reusable buffer rather than a
	// local array: a stack [4]byte sliced into an io.Reader argument
	// escapes and costs one heap allocation per frame (invisible to the
	// static analyzer, pinned by TestReadFrameSteadyStateAllocs).
	if cap(buf) < 4 {
		buf = make([]byte, 4) //pimvet:allow allocfree: one-time seed of the reusable buffer
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return nil, err // io.EOF here is a clean close
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return nil, unexpectedEOF(err)
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > MaxPayload {
		return nil, ErrFrameTooLarge
	}
	if n < headerSize {
		return nil, errShortPayload
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n) //pimvet:allow allocfree: amortized grow to the largest frame seen; steady state reuses the buffer
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, unexpectedEOF(err)
	}
	return buf, nil
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// DecodeRequest decodes a request-frame payload (as returned by
// ReadFrame), appending the ops to dst. Kinds are not validated here —
// the server answers undefined kinds with StatusBadKind rather than
// tearing down the connection. Zero-alloc when dst has capacity.
//
//pimvet:allocfree //pimvet:nonblocking
func DecodeRequest(payload []byte, dst []Op) ([]Op, error) {
	body, count, err := checkHeader(payload, FrameRequest, opSize)
	if err != nil {
		return dst, err
	}
	for i := 0; i < count; i++ {
		rec := body[i*opSize:]
		dst = append(dst, Op{
			ID:   binary.LittleEndian.Uint64(rec),
			Kind: OpKind(rec[8]),
			Key:  int64(binary.LittleEndian.Uint64(rec[9:])),
		})
	}
	return dst, nil
}

// DecodeRequestAny decodes a request-frame payload of any request
// type, returning the ops and the frame's trace context (the zero
// TraceContext for plain FrameRequest). Traced frames are validated
// strictly: a zero trace ID or undefined flag bits is ErrMalformed, so
// every accepted payload re-encodes byte-identically. Zero-alloc when
// dst has capacity: this is the server reader goroutine's per-frame
// fast path.
//
//pimvet:allocfree //pimvet:nonblocking
func DecodeRequestAny(payload []byte, dst []Op) ([]Op, TraceContext, error) {
	if len(payload) >= 1 && payload[0] == FrameRequest {
		ops, err := DecodeRequest(payload, dst)
		return ops, TraceContext{}, err
	}
	if len(payload) >= 1 && payload[0] == FrameRequestV2 {
		return DecodeRequestV2(payload, dst)
	}
	body, count, err := checkHeaderSized(payload, FrameRequestTraced, opSize, traceSize)
	if err != nil {
		return dst, TraceContext{}, err
	}
	tc := TraceContext{TraceID: binary.LittleEndian.Uint64(body)}
	switch body[8] {
	case 0:
	case 1:
		tc.Sampled = true
	default:
		return dst, TraceContext{}, errBadTraceFlags
	}
	if tc.TraceID == 0 {
		return dst, TraceContext{}, errZeroTraceID
	}
	body = body[traceSize:]
	for i := 0; i < count; i++ {
		rec := body[i*opSize:]
		dst = append(dst, Op{
			ID:   binary.LittleEndian.Uint64(rec),
			Kind: OpKind(rec[8]),
			Key:  int64(binary.LittleEndian.Uint64(rec[9:])),
		})
	}
	return dst, tc, nil
}

// DecodeRequestV2 decodes an extended request-frame payload, appending
// the ops (with their Hi/Limit fields) to dst. The trace-context slot
// is always present: trace id 0 with a zero flags byte means untraced;
// a sampled flag with a zero id is ErrMalformed, keeping accepted
// payloads canonical. Zero-alloc when dst has capacity.
//
//pimvet:allocfree //pimvet:nonblocking
func DecodeRequestV2(payload []byte, dst []Op) ([]Op, TraceContext, error) {
	body, count, err := checkHeaderSized(payload, FrameRequestV2, opV2Size, traceSize)
	if err != nil {
		return dst, TraceContext{}, err
	}
	tc := TraceContext{TraceID: binary.LittleEndian.Uint64(body)}
	switch body[8] {
	case 0:
	case 1:
		tc.Sampled = true
	default:
		return dst, TraceContext{}, errBadTraceFlags
	}
	if tc.Sampled && tc.TraceID == 0 {
		return dst, TraceContext{}, errZeroTraceID
	}
	body = body[traceSize:]
	for i := 0; i < count; i++ {
		rec := body[i*opV2Size:]
		dst = append(dst, Op{
			ID:    binary.LittleEndian.Uint64(rec),
			Kind:  OpKind(rec[8]),
			Key:   int64(binary.LittleEndian.Uint64(rec[9:])),
			Hi:    int64(binary.LittleEndian.Uint64(rec[17:])),
			Limit: binary.LittleEndian.Uint16(rec[25:]),
		})
	}
	return dst, tc, nil
}

// DecodeResponse decodes a response-frame payload, appending the
// results to dst. Records are validated strictly — an undefined status
// or a non-canonical ok byte (anything but 0/1) is ErrMalformed — so
// every accepted payload re-encodes byte-identically. Zero-alloc when
// dst has capacity: this is the client reader's per-frame fast path.
//
//pimvet:allocfree //pimvet:nonblocking
func DecodeResponse(payload []byte, dst []Result) ([]Result, error) {
	body, count, err := checkHeader(payload, FrameResponse, resultSize)
	if err != nil {
		return dst, err
	}
	for i := 0; i < count; i++ {
		rec := body[i*resultSize:]
		if rec[8] > uint8(StatusBadKey) {
			return dst, errBadStatus
		}
		if rec[9] > 1 {
			return dst, errBadOKByte
		}
		dst = append(dst, Result{
			ID:     binary.LittleEndian.Uint64(rec),
			Status: Status(rec[8]),
			OK:     rec[9] == 1,
			Value:  int64(binary.LittleEndian.Uint64(rec[10:])),
		})
	}
	return dst, nil
}

// DecodeResponseAny decodes a response-frame payload of either type,
// appending the results to dst. For FrameResponseVar, each record's
// values are appended to the vals arena and the result's Values field
// is a subslice of it, so callers reuse one arena per connection; the
// returned arena replaces vals. Validation
// is strict: the variable records must walk the payload exactly — a
// truncated record, trailing bytes, or a record-count mismatch is
// ErrMalformed — so every accepted payload re-encodes byte-identically.
// Zero-alloc when dst and vals have capacity.
//
//pimvet:allocfree //pimvet:nonblocking
func DecodeResponseAny(payload []byte, dst []Result, vals []int64) ([]Result, []int64, error) {
	if len(payload) >= 1 && payload[0] == FrameResponse {
		dst, err := DecodeResponse(payload, dst)
		return dst, vals, err
	}
	if len(payload) < headerSize {
		return dst, vals, errTruncatedHeader
	}
	if payload[0] != FrameResponseVar {
		return dst, vals, errWrongFrameType
	}
	count := int(binary.LittleEndian.Uint16(payload[1:]))
	if count > MaxOpsPerFrame {
		return dst, vals, errCountRange
	}
	// Pass 1: validate the record walk and total the values, so the
	// arena grows at most once — appending mid-decode could move the
	// arena and dangle the Values subslices already handed out.
	body := payload[headerSize:]
	total, off := 0, 0
	for i := 0; i < count; i++ {
		if len(body)-off < varBaseSize {
			return dst, vals, errVarTruncated
		}
		rec := body[off:]
		if rec[8] > uint8(StatusBadKey) {
			return dst, vals, errBadStatus
		}
		if rec[9] > 1 {
			return dst, vals, errBadOKByte
		}
		n := int(binary.LittleEndian.Uint16(rec[18:]))
		if len(body)-off-varBaseSize < 8*n {
			return dst, vals, errVarTruncated
		}
		total += n
		off += varBaseSize + 8*n
	}
	if off != len(body) {
		return dst, vals, errVarTrailing
	}
	if cap(vals)-len(vals) < total {
		grown := make([]int64, len(vals), len(vals)+total) //pimvet:allow allocfree: amortized arena grow to the largest response seen; steady state reuses the arena
		copy(grown, vals)
		vals = grown
	}
	// Pass 2: decode. The arena has capacity, so the subslices are
	// stable.
	off = 0
	for i := 0; i < count; i++ {
		rec := body[off:]
		n := int(binary.LittleEndian.Uint16(rec[18:]))
		start := len(vals)
		for j := 0; j < n; j++ {
			vals = append(vals, int64(binary.LittleEndian.Uint64(rec[varBaseSize+8*j:])))
		}
		dst = append(dst, Result{
			ID:     binary.LittleEndian.Uint64(rec),
			Status: Status(rec[8]),
			OK:     rec[9] == 1,
			Value:  int64(binary.LittleEndian.Uint64(rec[10:])),
			Values: vals[start:len(vals):len(vals)],
		})
		off += varBaseSize + 8*n
	}
	return dst, vals, nil
}

// checkHeader validates the frame type and that the payload length
// matches the declared record count exactly.
//
//pimvet:allocfree //pimvet:nonblocking
func checkHeader(payload []byte, wantType uint8, recSize int) (body []byte, count int, err error) {
	return checkHeaderSized(payload, wantType, recSize, 0)
}

// checkHeaderSized is checkHeader for frame types carrying extra bytes
// of fixed-size per-frame state (the trace context) before the records;
// the returned body starts at that state.
//
//pimvet:allocfree //pimvet:nonblocking
func checkHeaderSized(payload []byte, wantType uint8, recSize, extra int) (body []byte, count int, err error) {
	if len(payload) < headerSize {
		return nil, 0, errTruncatedHeader
	}
	if payload[0] != wantType {
		return nil, 0, errWrongFrameType
	}
	count = int(binary.LittleEndian.Uint16(payload[1:]))
	if count > MaxOpsPerFrame {
		return nil, 0, errCountRange
	}
	body = payload[headerSize:]
	if len(body) != extra+count*recSize {
		return nil, 0, errSizeMismatch
	}
	return body, count, nil
}

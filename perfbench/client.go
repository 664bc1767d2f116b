package main

//pimvet:allow-file determinism: the benchmark measures the host serve path in wall-clock time by design; its inputs stay seeded and nothing here feeds back into simulated time

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"pimds/internal/wire"
)

const (
	// lostAfter is how long a frame may wait for its responses; ops
	// still unanswered then are counted lost and the connection stops.
	lostAfter = 10 * time.Second
	// sampleEvery: in a traced run every frame carries its own trace ID,
	// and every sampleEvery-th frame also asks the server to record
	// spans for its ops. Sampling every frame would make span recording
	// the dominant server cost.
	sampleEvery = 8
	// maxSpans bounds the client spans kept for the Chrome trace; past
	// it the older half is dropped, as the server's rings drop their
	// oldest spans.
	maxSpans = 1 << 14
)

// epoch is the benchmark's clock origin; client timestamps are
// nanoseconds since it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// clientSpan is one client-side span of a sampled frame: a call into
// internal/wire, a socket call, or the result check.
type clientSpan struct {
	traceID    uint64
	name       string
	start, end int64
}

// clientStats accumulate over one measured window.
type clientStats struct {
	ops       int64
	reqBytes  int64
	respBytes int64
	encodeNS  int64 // in wire.AppendRequest*
	decodeNS  int64 // in wire.DecodeResponseAny
	busyNS    int64 // each round trip less its wait on the socket
}

func (s *clientStats) add(o clientStats) {
	s.ops += o.ops
	s.reqBytes += o.reqBytes
	s.respBytes += o.respBytes
	s.encodeNS += o.encodeNS
	s.decodeNS += o.decodeNS
	s.busyNS += o.busyNS
}

// client is one closed-loop connection: it keeps one request frame
// outstanding, checks every result against its shadow, and records
// per-op latency.
type client struct {
	id     int
	space  int64
	sh     *shadow
	stream *opStream

	nc net.Conn
	br *bufio.Reader

	seq   uint64
	ops   []wire.Op
	scans int
	fc    frameCheck
	wbuf  []byte
	rbuf  []byte
	res   []wire.Result
	vals  []int64

	traced bool // trace IDs on every frame; server sampling on some
	record bool // keep latency samples and stats
	lat    []latSample
	waits  []float64 // per-frame socket wait, µs
	spans  []clientSpan
	st     clientStats
}

func newClient(w workload, seed int64, id int) (*client, error) {
	s, err := newOpStream(w, seed, id)
	if err != nil {
		return nil, err
	}
	return &client{id: id, space: w.keySpace, sh: newShadow(w.keySpace, id), stream: s}, nil
}

func (c *client) connect(addr string) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	c.nc, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	return nil
}

func (c *client) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// startFrame begins frame c.seq+1 of n ops.
func (c *client) startFrame(n int) {
	c.seq++
	c.ops, c.scans = c.ops[:0], 0
	c.fc.reset(c.seq, n)
}

func (c *client) addOp(op wire.Op) {
	op.ID = opID(c.seq, len(c.ops))
	if op.Kind == wire.RangeScan {
		c.scans++
	}
	c.fc.add(c.sh, op, c.space)
	c.ops = append(c.ops, op)
}

// streamFrame fills the next frame from the workload's op stream.
func (c *client) streamFrame() {
	c.startFrame(frameOps)
	for i := 0; i < frameOps; i++ {
		c.addOp(c.stream.next())
	}
}

// keysFrame fills the next frame with one kind of op over keys.
func (c *client) keysFrame(kind wire.OpKind, keys []int64) {
	c.startFrame(len(keys))
	for _, k := range keys {
		c.addOp(wire.Op{Kind: kind, Key: k})
	}
}

// roundTrip sends the built frame and reads response frames until
// every op is answered, checking each result.
func (c *client) roundTrip() error {
	n := len(c.ops)
	var tc wire.TraceContext
	if c.traced {
		tc = wire.TraceContext{TraceID: uint64(c.id+1)<<48 | c.seq, Sampled: c.seq%sampleEvery == 0}
	}
	t0 := now()
	var err error
	switch {
	case c.scans > 0:
		c.wbuf, err = wire.AppendRequestV2(c.wbuf[:0], c.ops, tc)
	case tc.TraceID != 0:
		c.wbuf, err = wire.AppendRequestTraced(c.wbuf[:0], c.ops, tc)
	default:
		c.wbuf, err = wire.AppendRequest(c.wbuf[:0], c.ops)
	}
	if err != nil {
		return err
	}
	t1 := now()
	c.nc.SetDeadline(time.Now().Add(lostAfter))
	if _, err := c.nc.Write(c.wbuf); err != nil {
		c.fc.lost += int64(n)
		return err
	}
	t2 := now()
	keep := tc.Sampled
	if keep {
		if len(c.spans) >= maxSpans {
			c.spans = c.spans[:copy(c.spans, c.spans[maxSpans/2:])]
		}
		c.spans = append(c.spans, clientSpan{tc.TraceID, "wire.encode", t0, t1}, clientSpan{tc.TraceID, "socket.write", t1, t2})
	}
	var wait, decode int64
	prev := t2
	for c.fc.got < n {
		payload, err := wire.ReadFrame(c.br, c.rbuf)
		t3 := now()
		if err != nil {
			c.fc.lost += int64(c.fc.missing())
			return fmt.Errorf("conn %d: reading responses: %w", c.id, err)
		}
		c.rbuf = payload[:0]
		c.res, c.vals, err = wire.DecodeResponseAny(payload, c.res[:0], c.vals[:0])
		t4 := now()
		if err != nil {
			c.fc.lost += int64(c.fc.missing())
			return fmt.Errorf("conn %d: decoding responses: %w", c.id, err)
		}
		for i := range c.res {
			c.fc.check(&c.res[i], c.id)
		}
		t5 := now()
		wait += t3 - prev
		decode += t4 - t3
		if c.record {
			c.lat = append(c.lat, latSample{ns: t3 - t1, ops: int64(len(c.res))})
			c.st.respBytes += int64(len(payload)) + 4
		}
		if keep {
			c.spans = append(c.spans, clientSpan{tc.TraceID, "socket.read", prev, t3},
				clientSpan{tc.TraceID, "wire.decode", t3, t4}, clientSpan{tc.TraceID, "check", t4, t5})
		}
		prev = t5
	}
	if c.record {
		c.st.ops += int64(n)
		c.st.reqBytes += int64(len(c.wbuf))
		c.st.encodeNS += t1 - t0
		c.st.decodeNS += decode
		c.st.busyNS += prev - t0 - wait
		c.waits = append(c.waits, float64(wait)/1e3)
	}
	return nil
}

// preload adds keys, which must all be absent, in maximal frames.
func (c *client) preload(keys []int64) error {
	for len(keys) > 0 {
		n := len(keys)
		if n > preloadOps {
			n = preloadOps
		}
		c.keysFrame(wire.Add, keys[:n])
		if err := c.roundTrip(); err != nil {
			return err
		}
		keys = keys[n:]
	}
	return nil
}

// resetWindow clears the per-window records and sets whether the next
// window records.
func (c *client) resetWindow(record bool) {
	c.record = record
	c.lat, c.waits = c.lat[:0], c.waits[:0]
	c.st = clientStats{}
}

// each runs fn on every client concurrently and returns the first
// error.
func each(cs []*client, fn func(*client) error) error {
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			errs[i] = fn(c)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// drive runs every client's closed loop for d and returns the time from
// the start until the last outstanding frame completed.
func drive(cs []*client, d time.Duration) (time.Duration, error) {
	start := time.Now()
	deadline := start.Add(d)
	err := each(cs, func(c *client) error {
		for time.Now().Before(deadline) {
			c.streamFrame()
			if err := c.roundTrip(); err != nil {
				return err
			}
		}
		return nil
	})
	return time.Since(start), err
}

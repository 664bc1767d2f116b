// Package server is the networked data-structure server behind
// cmd/pimserve: it owns one sequential structure per shard and serves
// set/queue/stack operations over the wire protocol to many TCP
// clients at once.
//
// The concurrency design is flat combining (Hendler et al., SPAA
// 2010) transplanted onto a server: per-connection reader goroutines
// decode operations and *publish* them into a bounded per-shard queue
// (the publication list), and a single combiner goroutine per shard
// drains whole batches and executes them against the shard's
// sequential structure — no locks on the structures, one execution
// context per shard, exactly the pattern the paper's PIM structures
// use with one PIM core per vault. Backpressure is structural: when a
// shard queue fills, readers block, stop draining their sockets, and
// TCP pushes back on the clients.
//
// Shutdown is a drain, not an abort: accepted operations are executed
// and their responses flushed before connections close, so no
// acknowledged operation is ever lost (the e2e tests assert this).
package server

//pimvet:allow-file determinism: the network server runs on real wall-clock time by design — connection deadlines, span stamps and latency metrics measure the host, not simulated virtual time; nothing here feeds back into the simulator

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pimds/internal/obs"
	"pimds/internal/obs/health"
	"pimds/internal/wal"
	"pimds/internal/wire"
)

// Config configures a Server.
type Config struct {
	// Structure selects the data structure: list, skip, hash (sets
	// keyed in [0, KeySpace)), queue or stack.
	Structure string

	// Shards is the number of independent combiner shards. Sets are
	// range-partitioned across shards (shard i owns keys
	// [i·KeySpace/Shards, (i+1)·KeySpace/Shards)), mirroring the
	// paper's partitioned skip-list; queue and stack are inherently
	// serial and require Shards == 1. Default 1.
	Shards int

	// KeySpace is the exclusive key bound for set structures; keys
	// outside [0, KeySpace) get StatusBadKey. Default 1<<16.
	KeySpace int64

	// QueueDepth is the capacity of each shard's pending-op queue and
	// of each connection's response queue. A full shard queue blocks
	// readers (backpressure). Default 1024.
	QueueDepth int

	// IdleTimeout closes connections with no complete frame for this
	// long. Zero disables the deadline.
	IdleTimeout time.Duration

	// WriteTimeout bounds one response-frame write to a slow client;
	// on expiry the connection is marked failed and its remaining
	// responses are discarded so combiners never stall on a dead peer.
	// Default 30s.
	WriteTimeout time.Duration

	// Seed perturbs the skip-list tower generators. Default 1.
	Seed int64

	// TraceSample is the fraction of request frames ([0, 1]) the server
	// samples for span recording on its own initiative. Zero traces
	// nothing locally, but clients can still force individual frames
	// into the sample via the traced-frame Sampled bit. Sampling is
	// decided per frame in the reader with a per-connection generator,
	// so the unsampled fast path costs one comparison.
	TraceSample float64

	// TraceRing is the per-shard capacity of the finished-span ring
	// buffers behind TraceSpans and the ops endpoint's /trace export.
	// Default 256.
	TraceRing int

	// SlowThreshold, when positive, logs every sampled request whose
	// end-to-end latency meets it into the slow-request log (bounded,
	// most recent kept) served at the ops endpoint's /slow.
	SlowThreshold time.Duration

	// Reg receives server metrics (nil disables instrumentation).
	Reg *obs.Registry

	// WindowTick enables windowed metrics and the health engine: a
	// dedicated ticker goroutine rotates Reg's state into tiered delta
	// rings (obs.DefaultTiers(WindowTick)) every WindowTick and re-evaluates the health rules on each
	// rotation. Zero disables the window: /metrics/history serves an
	// empty history and /healthz reports only drain state.
	WindowTick time.Duration

	// HealthRules overrides the rule set evaluated on every rotation.
	// Nil selects DefaultHealthRules(0).
	HealthRules []health.Rule

	// Log, when non-nil, records every applied operation for
	// linearizability checking (testing/auditing only).
	Log *OpLog

	// WALDir enables durability: every combiner batch's mutating ops
	// are staged as one write-ahead-log record inside the combining
	// window, and the batch's acks are released only after the record
	// is durable under the Fsync policy. On start the server restores
	// the newest snapshot in the directory, replays the log tail, and
	// holds /healthz at "recovering" until done. Empty disables the
	// WAL entirely.
	WALDir string

	// Fsync selects when WAL records reach stable storage:
	// FsyncAlways (per record), FsyncBatch (per writer pass — the
	// default), or FsyncOff (kernel only). Meaningful only with WALDir.
	Fsync string

	// SnapshotEvery, when positive, takes a periodic snapshot of every
	// shard's state and truncates the log behind it. Zero snapshots
	// only at clean shutdown. Meaningful only with WALDir.
	SnapshotEvery time.Duration
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.KeySpace == 0 {
		c.KeySpace = 1 << 16
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 1024
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Fsync == "" {
		c.Fsync = FsyncBatch
	}
	return c
}

// pendingOp is one published operation awaiting its combiner.
type pendingOp struct {
	op    wire.Op
	conn  *conn
	start int64 // ns since server epoch, stamped at decode
	sp    *span // non-nil only for sampled requests
}

// delivery is one result handed from a combiner (or the reject path)
// to a connection's writer, carrying the span along so the writer can
// stamp encode/flush and finish it.
type delivery struct {
	res wire.Result
	sp  *span
}

// conn is one client connection. The reader publishes ops and tracks
// them in inflight; combiners deliver results into out; the writer
// drains out into response frames. out is closed (exactly once) only
// after the reader has exited and every inflight op has been
// delivered, which is what makes drain lossless.
type conn struct {
	id  int
	nc  net.Conn
	out chan delivery
	rng uint64 // trace-sampling xorshift64 state; reader goroutine only

	inflight sync.WaitGroup
	closeOut sync.Once
	failed   atomic.Bool // writer hit an error; discard further output
}

// sampleHit advances the connection's private xorshift64 state and
// reports whether this frame falls inside the sample. Only the reader
// goroutine calls it, so the state needs no synchronization; the
// unsampled path is three shifts and a compare, no allocation — this is
// the per-frame cost tracing adds to untraced traffic, so it is pinned.
//
//pimvet:allocfree //pimvet:nonblocking
func (c *conn) sampleHit(threshold uint64) bool {
	x := c.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.rng = x
	return x <= threshold
}

// Server is one pimserve instance. Create with New, run with Serve,
// stop with Shutdown.
type Server struct {
	cfg    Config
	caps   Capability
	shards []*shard
	epoch  time.Time
	tr     *tracer

	mu       sync.Mutex
	ln       net.Listener
	conns    []*conn
	draining atomic.Bool

	readers   sync.WaitGroup
	shardWG   sync.WaitGroup
	writers   sync.WaitGroup
	drainDone chan struct{}
	shutdown  sync.Once
	connSeq   atomic.Int64

	// durability (nil/false when Config.WALDir is empty)
	wal        *walState
	walOnce    sync.Once
	recovering atomic.Bool

	// windowed metrics + health (nil/idle when Config.WindowTick is 0)
	win        *obs.Window
	eng        *health.Engine
	healthMu   sync.Mutex
	verdict    health.Verdict
	windowStop chan struct{}
	windowDone chan struct{}

	// metrics (nil-safe through obs)
	connsOpen  *obs.Gauge
	connsTotal *obs.Counter
	framesIn   *obs.Counter
	framesOut  *obs.Counter
	opsTotal   *obs.Counter
	opsBad     *obs.Counter
	opLatency  *obs.Histogram
}

// shard is one combiner: a bounded publication queue plus the
// sequential structure only its loop touches. free holds the shard's
// passes (see pass); arena is the pass-local store for range-scan
// values: backends append into it, results reference segments of it,
// and the combiner copies those segments out before the next pass
// truncates it, so its capacity amortizes to the largest scan pass.
type shard struct {
	idx   int
	in    chan pendingOp
	be    backend
	free  chan *pass // idle passes; one in memory, walCommitsPerShard with a WAL
	arena []int64

	// durability (combiner goroutine only; zero/nil when the WAL is off,
	// and a nil ctl is never ready)
	walSeq uint64      // sequence of the last staged record
	ctl    chan func() // combiner-context control (snapshot dumps)

	batchSize  *obs.Histogram
	queueDepth *obs.Gauge
	combines   *obs.Counter
	scanBatch  *obs.Histogram
}

// pass is one combine pass, from gather to ack: the ops the combiner
// took from its queue, their packed wire form, the results, the staged
// WAL record and the apply-end stamp. Preallocated at the frame limit
// so a pass allocates nothing. The combiner fills it, then either
// releases it at once (memory) or hands the pass itself down the WAL
// commit FIFO, and release recycles it to its shard's free list — so
// with a WAL the free list's depth is also the staging backpressure. A
// pass with a nil shard is a WAL control item: fn runs on the writer
// after everything before it is synced and acked.
type pass struct {
	sh      *shard
	batch   []pendingOp
	ops     []wire.Op
	results []wire.Result
	buf     []byte // staged WAL record; empty when the batch mutated nothing
	end     int64  // apply-completion stamp
	traced  bool   // any span in the batch
	fn      func() // control item body (sh == nil)
}

// newPass allocates one pass for sh at the frame limit, with a record
// buffer when the pass is to be staged into the WAL.
func newPass(sh *shard, durable bool) *pass {
	ps := &pass{
		sh:      sh,
		batch:   make([]pendingOp, 0, wire.MaxOpsPerFrame),
		ops:     make([]wire.Op, 0, wire.MaxOpsPerFrame),
		results: make([]wire.Result, wire.MaxOpsPerFrame),
	}
	if durable {
		ps.buf = make([]byte, 0, wal.RecordCap(wire.MaxOpsPerFrame))
	}
	return ps
}

// New builds a server from cfg.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("server: shards must be ≥ 1, got %d", cfg.Shards)
	}
	if (cfg.Structure == StructQueue || cfg.Structure == StructStack) && cfg.Shards != 1 {
		return nil, fmt.Errorf("server: structure %q is inherently serial; use shards=1, got %d", cfg.Structure, cfg.Shards)
	}
	if cfg.KeySpace < int64(cfg.Shards) {
		return nil, fmt.Errorf("server: key space %d smaller than %d shards", cfg.KeySpace, cfg.Shards)
	}
	caps, ok := LookupCapability(cfg.Structure)
	if !ok {
		return nil, fmt.Errorf("server: unknown structure %q (want %s)",
			cfg.Structure, strings.Join(Structures(), "|"))
	}
	s := &Server{
		cfg:       cfg,
		caps:      caps,
		epoch:     time.Now(),
		drainDone: make(chan struct{}),

		connsOpen:  cfg.Reg.Gauge("server/conns/open"),
		connsTotal: cfg.Reg.Counter("server/conns/total"),
		framesIn:   cfg.Reg.Counter("server/frames/in"),
		framesOut:  cfg.Reg.Counter("server/frames/out"),
		opsTotal:   cfg.Reg.Counter("server/ops/total"),
		opsBad:     cfg.Reg.Counter("server/ops/rejected"),
		opLatency:  cfg.Reg.Histogram("server/op_latency_ns"),
	}
	s.tr = newTracer(cfg, s.epoch)
	if cfg.WALDir != "" {
		w, err := newWALState(cfg)
		if err != nil {
			return nil, err
		}
		s.wal = w
		// Not ready until Serve's recovery pass completes: /healthz
		// reports "recovering" (503) from the very first scrape.
		s.recovering.Store(true)
	}
	for i := 0; i < cfg.Shards; i++ {
		be, err := newBackend(cfg.Structure, i, cfg.Seed)
		if err != nil {
			return nil, err
		}
		sh := &shard{
			idx:        i,
			in:         make(chan pendingOp, cfg.QueueDepth),
			be:         be,
			batchSize:  cfg.Reg.Histogram(fmt.Sprintf("server/shard/%03d/batch_size", i)),
			queueDepth: cfg.Reg.Gauge(fmt.Sprintf("server/shard/%03d/queue_depth", i)),
			combines:   cfg.Reg.Counter(fmt.Sprintf("server/shard/%03d/combines", i)),
			scanBatch:  cfg.Reg.Histogram(fmt.Sprintf("server/shard/%03d/scan_batch", i)),
		}
		depth := 1
		if s.wal != nil {
			depth = walCommitsPerShard
			sh.ctl = make(chan func())
		}
		sh.free = make(chan *pass, depth)
		for j := 0; j < depth; j++ {
			sh.free <- newPass(sh, s.wal != nil)
		}
		s.shards = append(s.shards, sh)
		s.shardWG.Add(1)
		go s.combineLoop(sh)
	}
	if cfg.WindowTick > 0 {
		win, err := obs.NewWindow(cfg.Reg, obs.DefaultTiers(cfg.WindowTick))
		if err != nil {
			return nil, err
		}
		rules := cfg.HealthRules
		if rules == nil {
			rules = DefaultHealthRules(0)
		}
		s.win = win
		s.eng = health.NewEngine(rules...)
		s.windowStop = make(chan struct{})
		s.windowDone = make(chan struct{})
		go s.rotateLoop(cfg.WindowTick)
	}
	return s, nil
}

// now returns nanoseconds since the server epoch (monotonic).
func (s *Server) now() int64 { return time.Since(s.epoch).Nanoseconds() }

// shardFor routes a set key (already validated in [0, KeySpace)) to
// its range partition.
func (s *Server) shardFor(key int64) *shard {
	i := int(key * int64(len(s.shards)) / s.cfg.KeySpace)
	return s.shards[i]
}

// shardUpper is the exclusive upper key bound of shard i's partition.
func (s *Server) shardUpper(i int) int64 {
	return int64(i+1) * s.cfg.KeySpace / int64(len(s.shards))
}

// Serve accepts connections on ln until Shutdown (returning nil after
// the drain completes) or a listener error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	draining := s.draining.Load()
	s.mu.Unlock()
	if draining {
		// Shutdown ran before Serve stored the listener and so could not
		// close it; close it here or Accept would block forever on a
		// drained server.
		ln.Close()
		<-s.drainDone
		return nil
	}
	// Recover before the first Accept: no client can connect — and so
	// no op can be published — until the restored state and the log
	// tail agree. /healthz (on the ops listener) serves "recovering"
	// meanwhile.
	if err := s.recoverWAL(); err != nil {
		return err
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				<-s.drainDone
				return nil
			}
			return err
		}
		c := &conn{
			id:  int(s.connSeq.Add(1)),
			nc:  nc,
			out: make(chan delivery, s.cfg.QueueDepth),
		}
		// Seed the sampler from the connection id via a splitmix64
		// round: distinct nonzero streams per connection without any
		// shared generator for readers to contend on.
		z := uint64(c.id)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
		z ^= z >> 30
		z *= 0x94d049bb133111eb
		c.rng = z | 1
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns = append(s.conns, c)
		s.readers.Add(1)
		s.writers.Add(1)
		s.mu.Unlock()
		s.connsTotal.Inc()
		s.connsOpen.Add(1)
		go s.readLoop(c)
		go s.writeLoop(c)
	}
}

// Addr returns the listen address once Serve has been called.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// readLoop decodes request frames and publishes their ops to shards.
// It exits on connection error, idle timeout, malformed input, or
// drain; only complete frames ever publish ops, so a teardown
// mid-frame loses nothing that could have been acknowledged.
func (s *Server) readLoop(c *conn) {
	defer func() {
		s.readers.Done()
		// Close the response queue only after every published op has
		// been executed and delivered; the writer then flushes the
		// tail and closes the socket.
		go func() {
			c.inflight.Wait()
			c.closeOut.Do(func() { close(c.out) })
		}()
	}()
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var buf []byte
	var ops []wire.Op
	for {
		if s.draining.Load() {
			return
		}
		if t := s.cfg.IdleTimeout; t > 0 {
			c.nc.SetReadDeadline(time.Now().Add(t))
		}
		payload, err := wire.ReadFrame(br, buf)
		if err != nil {
			return
		}
		buf = payload[:0]
		tFrame := s.now()
		var tc wire.TraceContext
		ops, tc, err = wire.DecodeRequestAny(payload, ops[:0])
		if err != nil {
			return
		}
		s.framesIn.Inc()
		// One sampling decision per frame: the client's Sampled bit
		// forces it, otherwise the connection-local generator draws.
		// Everything span-shaped stays behind this flag.
		sampled := tc.Sampled
		if !sampled && s.tr.sampleThreshold > 0 {
			sampled = c.sampleHit(s.tr.sampleThreshold)
		}
		traceID := tc.TraceID
		if sampled && traceID == 0 {
			traceID = s.tr.nextTraceID()
		}
		start := s.now()
		for _, op := range ops {
			if !s.caps.Supports(op.Kind) {
				s.reject(c, wire.Result{ID: op.ID, Status: wire.StatusBadKind})
				continue
			}
			if s.caps.SerialOnly(op.Kind) && len(s.shards) > 1 {
				// Global queries (Pred/Succ/PopMin/PopMax) would need a
				// cross-shard merge; until that lands (ROADMAP item 5)
				// they are served only by single-shard servers.
				s.reject(c, wire.Result{ID: op.ID, Status: wire.StatusBadKind})
				continue
			}
			if s.caps.Keyed(op.Kind) && (op.Key < 0 || op.Key >= s.cfg.KeySpace) {
				s.reject(c, wire.Result{ID: op.ID, Status: wire.StatusBadKey})
				continue
			}
			sh := s.shards[0]
			if s.caps.Keyed(op.Kind) {
				sh = s.shardFor(op.Key)
			}
			if op.Kind == wire.RangeScan {
				// Clamp Hi to the owning shard's bound so one scan never
				// crosses a combiner — the pagination cursor (== the
				// clamped Hi on a complete scan) walks the client into
				// the next shard naturally — and bound the per-scan
				// cardinality (a Limit of 0 requests the maximum).
				if hi := s.shardUpper(sh.idx); op.Hi > hi {
					op.Hi = hi
				}
				if op.Limit == 0 || op.Limit > wire.MaxScanLimit {
					op.Limit = wire.MaxScanLimit
				}
			}
			var sp *span
			if sampled {
				sp = &span{traceID: traceID, opID: op.ID, kind: op.Kind,
					conn: c.id, shard: sh.idx, start: tFrame}
				s.tr.sampled.Inc()
			}
			c.inflight.Add(1)
			if sp != nil {
				sp.pub = s.now()
			}
			sh.in <- pendingOp{op: op, conn: c, start: start, sp: sp}
		}
	}
}

// reject answers an invalid op directly from the reader, bypassing the
// shards.
func (s *Server) reject(c *conn, res wire.Result) {
	s.opsBad.Inc()
	c.inflight.Add(1)
	c.out <- delivery{res: res}
	c.inflight.Done()
}

// combineLoop is one shard's combiner: it blocks for the first pending
// op, takes an idle pass, greedily drains the rest of the queue into
// it, executes the whole batch against the sequential structure in one
// pass, and releases the acks — at once in memory, after the covering
// sync with a WAL.
func (s *Server) combineLoop(sh *shard) {
	defer s.shardWG.Done()
	for {
		var p pendingOp
		var ok bool
		select {
		case p, ok = <-sh.in:
			if !ok {
				return
			}
		case f := <-sh.ctl:
			// The snapshot scheduler borrows the combiner between passes
			// to dump the shard's state at a consistent point in its
			// serial order.
			f()
			continue
		}
		// Blocking here — the WAL writer holds every pass of the shard —
		// is the WAL's backpressure, upstream of the window. In memory
		// the shard's single pass is always back by now.
		ps := <-sh.free
		ps.batch, ps.traced = ps.batch[:0], false
		// Gather greedily: p is the next op for as long as ok holds.
		for ok {
			// Stamp sampled ops' pickup: everything before this instant
			// is queue wait, everything until the batch executes is
			// combine wait.
			if p.sp != nil {
				p.sp.pick = s.now()
				ps.traced = true
			}
			ps.batch = append(ps.batch, p)
			if len(ps.batch) == wire.MaxOpsPerFrame {
				break
			}
			select {
			case p, ok = <-sh.in:
			default:
				ok = false
			}
		}
		s.applyBatch(sh, ps)

		// Scan results reference segments of the shard's arena, which
		// the next pass truncates and refills; copy them out here — in
		// the loop, not the pinned combining window, so the combiner has
		// already stamped completion and the copies are plain heap
		// slices the writer (and op log) can hold indefinitely. Point
		// results carry no values and skip this entirely.
		scans := int64(0)
		for i := range ps.results {
			if ps.results[i].Values != nil {
				ps.results[i].Values = append([]int64(nil), ps.results[i].Values...)
				scans++
			}
		}
		if scans > 0 {
			sh.scanBatch.Observe(scans)
		}

		s.cfg.Log.record(ps.batch, ps.results, ps.end)
		sh.combines.Inc()
		sh.batchSize.Observe(int64(len(ps.batch)))
		sh.queueDepth.Set(int64(len(sh.in)))
		s.opsTotal.Add(uint64(len(ps.batch)))
		if s.wal != nil {
			// Durable path: the WAL writer releases the pass once its
			// record is on disk. Every pass rides the pipeline — even one
			// that staged nothing — so an ack for a read that observed a
			// write always follows that write's sync.
			s.wal.commits <- ps
			continue
		}
		s.release(ps, ps.end)
	}
}

// applyBatch executes the gathered batch against the shard's sequential
// structure: it stamps sampled ops' apply-start, packs the ops into the
// pass, runs one ApplyBatch, stages the WAL record when durable, and
// stamps completion. This is the combining window itself — every
// published op on the shard waits for it — so it must neither allocate
// (GC pauses here stall the whole shard) nor touch anything that can
// park the combiner goroutine; channel hand-offs stay in combineLoop on
// either side.
//
//pimvet:allocfree //pimvet:nonblocking
//pimvet:window
func (s *Server) applyBatch(sh *shard, ps *pass) {
	if ps.traced {
		tApply := s.now()
		for i := range ps.batch {
			if sp := ps.batch[i].sp; sp != nil {
				sp.applyStart = tApply
			}
		}
	}
	ps.ops = ps.ops[:0]
	for i := range ps.batch {
		ps.ops = append(ps.ops, ps.batch[i].op)
	}
	ps.results = ps.results[:len(ps.batch)]
	sh.arena = sh.be.ApplyBatch(ps.ops, ps.results, sh.arena[:0])
	if s.wal != nil {
		// Durability stages here, inside the window, but only as bytes
		// in a preallocated buffer: the file write and fsync belong to
		// the WAL writer goroutine (pimvet's window check enforces the
		// split).
		sh.stageRecord(ps)
	}
	ps.end = s.now()
}

// release acks every op of a finished pass — latency, span, delivery to
// the connection's writer, inflight — and recycles the pass to its
// shard. tAck is when the results became final: the apply end in
// memory, the covering sync with a WAL. The sends block while a writer
// is behind (bounded by WriteTimeout failing the conn).
func (s *Server) release(ps *pass, tAck int64) {
	for i := range ps.batch {
		p := &ps.batch[i]
		s.opLatency.Observe(tAck - p.start)
		if p.sp != nil {
			p.sp.applied = ps.end
		}
		p.conn.out <- delivery{res: ps.results[i], sp: p.sp}
		p.conn.inflight.Done()
	}
	ps.sh.free <- ps
}

// closeGrace bounds how long a closing connection waits for the client
// to read its final responses and close its half of the socket.
const closeGrace = 5 * time.Second

// writeLoop drains a connection's results into batched response
// frames. After a write error the connection is failed: results keep
// draining (so combiners never block on a dead peer) but nothing more
// is sent.
func (s *Server) writeLoop(c *conn) {
	defer func() {
		// Close gracefully: a bare Close with unread request bytes in
		// the kernel buffer sends RST, which destroys responses still in
		// flight to the client — exactly the acknowledged-op loss the
		// drain contract forbids. Send FIN instead, then discard inbound
		// until the client closes (the reader has already exited, so the
		// socket is ours to drain).
		if cw, ok := c.nc.(interface{ CloseWrite() error }); ok && !c.failed.Load() {
			cw.CloseWrite()
			deadline := time.Now().Add(closeGrace)
			for {
				c.nc.SetReadDeadline(deadline)
				if _, err := io.Copy(io.Discard, c.nc); err == nil {
					break // client sent FIN
				} else if ne, ok := err.(net.Error); ok && ne.Timeout() && time.Now().Before(deadline) {
					continue // Shutdown poked the read deadline; re-arm ours
				}
				break
			}
		}
		c.nc.Close()
		s.connsOpen.Add(-1)
		s.writers.Done()
	}()
	bw := bufio.NewWriterSize(c.nc, 64<<10)
	var buf []byte
	batch := make([]wire.Result, 0, wire.MaxOpsPerFrame)
	var spans, pending []*span // this frame's spans; encoded spans awaiting flush
	for {
		d, ok := <-c.out
		if !ok {
			// Tail flush: spans already encoded finish here iff their
			// bytes actually reached the socket.
			if err := bw.Flush(); err != nil || c.failed.Load() {
				s.tr.drop(len(pending))
			} else {
				s.finishFlushed(pending)
			}
			return
		}
		batch, spans = batch[:0], spans[:0]
		batch = append(batch, d.res)
		if d.sp != nil {
			spans = append(spans, d.sp)
		}
	gather:
		for len(batch) < wire.MaxOpsPerFrame {
			select {
			case d, ok := <-c.out:
				if !ok {
					break gather
				}
				batch = append(batch, d.res)
				if d.sp != nil {
					spans = append(spans, d.sp)
				}
			default:
				break gather
			}
		}
		if c.failed.Load() {
			s.tr.drop(len(spans) + len(pending))
			pending = pending[:0]
			continue
		}
		var nframes int
		buf, nframes, _ = wire.AppendResponses(buf[:0], batch)
		if len(spans) > 0 {
			tEnc := s.now()
			for _, sp := range spans {
				sp.enc = tEnc
			}
		}
		if t := s.cfg.WriteTimeout; t > 0 {
			c.nc.SetWriteDeadline(time.Now().Add(t))
		}
		if _, err := bw.Write(buf); err != nil {
			c.failed.Store(true)
			s.tr.drop(len(spans) + len(pending))
			pending = pending[:0]
			continue
		}
		pending = append(pending, spans...)
		if len(c.out) == 0 {
			if err := bw.Flush(); err != nil {
				c.failed.Store(true)
				s.tr.drop(len(pending))
				pending = pending[:0]
				continue
			}
			pending = s.finishFlushed(pending)
		}
		s.framesOut.Add(uint64(nframes))
	}
}

// finishFlushed closes every span whose response bytes just reached
// the socket, stamping one shared flush time, and returns the emptied
// reusable slice.
func (s *Server) finishFlushed(pending []*span) []*span {
	if len(pending) == 0 {
		return pending
	}
	tFlush := s.now()
	for _, sp := range pending {
		sp.flush = tFlush
		s.tr.finish(sp)
	}
	return pending[:0]
}

// Shutdown drains the server: it stops accepting, unblocks the
// readers, lets every shard execute its remaining queue, waits for the
// writers to flush every response, and only then closes the
// connections. Safe to call more than once; Serve returns nil once the
// drain completes.
func (s *Server) Shutdown() {
	s.shutdown.Do(func() {
		s.draining.Store(true)
		s.mu.Lock()
		ln := s.ln
		conns := append([]*conn(nil), s.conns...)
		s.mu.Unlock()
		if ln != nil {
			ln.Close()
		}
		// Unblock readers stuck in Read; they exit without publishing
		// partial frames.
		for _, c := range conns {
			c.nc.SetReadDeadline(time.Now())
		}
		s.readers.Wait()
		// Stop the snapshot scheduler before the combiners: its dumps
		// borrow combiner context and its segment rolls ride the WAL
		// writer, so both peers must outlive it.
		s.mu.Lock()
		w := s.wal
		started := w != nil && w.started
		s.mu.Unlock()
		if started && w.snapStop != nil {
			close(w.snapStop)
			<-w.snapDone
		}
		// No more producers: close the publication queues, let the
		// combiners drain them dry.
		for _, sh := range s.shards {
			close(sh.in)
		}
		s.shardWG.Wait()
		// The combiners handed their last batches to the WAL writer;
		// close the commit pipeline and wait for the final sync — only
		// then has every op been acked and every conn's inflight count
		// reached zero.
		if started {
			close(w.commits)
			<-w.writerDone
		}
		// Every inflight op is delivered, so each conn's teardown
		// closes its out queue and its writer flushes and exits.
		s.writers.Wait()
		// Quiescent now: capture the drained state so the next start
		// restores a snapshot instead of replaying the whole log.
		if started {
			s.finalSnapshot()
		}
		// Stop window rotation last: /healthz and /metrics/history stay
		// scrape-safe for the whole drain (reporting "draining"), and no
		// rotation can race the registry once drainDone closes.
		if s.windowStop != nil {
			close(s.windowStop)
			<-s.windowDone
		}
		close(s.drainDone)
	})
}

// ShardLens returns each shard's element count. Only meaningful at
// quiescence (after Shutdown).
func (s *Server) ShardLens() []int {
	lens := make([]int, len(s.shards))
	for i, sh := range s.shards {
		lens[i] = sh.be.Len()
	}
	return lens
}

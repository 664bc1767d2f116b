package pimskip

import (
	"fmt"

	"pimds/internal/obs"
	"pimds/internal/sim"
)

// Partitioned range queries over the PIM skip-list. A client issues
// RangeScan(lo, hi, limit) to the core its directory says owns lo; the
// core answers with every present key in [lo, hi∧bound) where bound is
// the upper edge of its owned range, in ascending order, plus a
// pagination cursor. The client follows the cursor — re-routing through
// its directory at every hop — until the cursor reaches hi, so one
// logical scan walks as many vaults as its window spans without the
// client ever knowing the partition layout. Each page is served
// atomically by one core (a single sweep of its sequential skip-list);
// the multi-page whole is a cursor-consistent scan, the same contract
// the network server's sharded scans expose.

// RangeChunk is the number of keys per MsgRangeResp message: eight
// 8-byte keys fill the paper's cache-line message bound, so a page of
// n keys costs ⌈n/8⌉ response messages — the quantity the analytical
// model charges as R/chunk·Lmessage.
const RangeChunk = 8

// handleRange serves one range page. Cost accounting: one descent to lo
// plus one bottom-level step per visited node (both via seq.Steps), one
// message per RangeChunk of result keys. Rejections (stale directory,
// or the window overlaps an outgoing migration whose nodes are split
// between source and target) bounce the client back to its directory,
// exactly like point ops.
func (p *Partition) handleRange(c *sim.PIMCore, m sim.Message) {
	lo, hi := m.Key, m.Val
	limit, _ := m.Payload.(int)
	if p.mig != nil && p.mig.rng.Low < hi && lo < p.mig.rng.High {
		c.Local()
		c.Send(sim.Message{To: m.From, Kind: MsgReject, Key: lo})
		p.Rejected++
		return
	}
	// Clamp the page to the owned range containing lo; keys beyond it
	// live in another vault and the cursor walks the client there.
	end := int64(-1)
	for _, r := range p.owns {
		if r.contains(lo) {
			end = r.High
			break
		}
	}
	if end < 0 {
		c.Local()
		c.Send(sim.Message{To: m.From, Kind: MsgReject, Key: lo})
		p.Rejected++
		return
	}
	if end > hi {
		end = hi
	}

	p.seq.ResetSteps()
	var n int
	var cursor int64
	p.arena, n, cursor = p.seq.RangeScanInto(lo, end, limit, p.arena[:0])
	c.ReadN(int(p.seq.Steps()))
	for i := 0; i < n; i += RangeChunk {
		j := i + RangeChunk
		if j > n {
			j = n
		}
		msg := sim.Message{To: m.From, Kind: MsgRangeResp, Key: lo,
			Payload: append([]int64(nil), p.arena[i:j]...)}
		if j == n {
			msg.OK, msg.Val = true, cursor
		}
		c.Send(msg)
	}
	if n == 0 {
		c.Send(sim.Message{To: m.From, Kind: MsgRangeResp, Key: lo, OK: true, Val: cursor})
	}
	p.RangesServed++
	c.CountOp()
}

// RangeOp is one client-issued range query: scan [Lo, Hi) returning at
// most Limit keys per page (0 = unlimited pages bounded only by
// partition edges).
type RangeOp struct {
	Lo, Hi int64
	Limit  int
}

// RangeClient is a closed-loop CPU client issuing paginated range
// scans: it keeps one scan in flight, following cursors across
// partitions, and like the point-op Client holds a private directory
// copy, retries rejections, and participates in the migration
// handshake.
type RangeClient struct {
	s    *SkipList
	cpu  *sim.CPU
	dir  *Directory
	next func(seq uint64) RangeOp

	seq      uint64
	cur      RangeOp
	cursor   int64
	keys     []int64
	stopped  bool
	issuedAt sim.Time

	// Latency records full-scan response times (first page issued to
	// final cursor, including rejection retries) in picoseconds.
	Latency *obs.Histogram

	// Stats.
	Completed    uint64 // fully paginated scans
	Pages        uint64 // pages received (one per serving core visit)
	KeysReturned uint64
	Rejections   uint64
	DirUpdates   uint64

	// OnScan, if set, observes every completed scan and its keys in
	// completion order (tests). The slice is reused by the next scan.
	OnScan func(op RangeOp, keys []int64)

	// OnComplete additionally reports the scan's virtual-time interval.
	OnComplete func(start, end sim.Time, op RangeOp, keys []int64)
}

// NewRangeClient registers a closed-loop range-scan client issuing the
// query stream produced by next. Call Start to begin.
func (s *SkipList) NewRangeClient(next func(seq uint64) RangeOp) *RangeClient {
	rc := &RangeClient{s: s, dir: s.auth.Clone(), next: next, Latency: &obs.Histogram{}}
	rc.cpu = s.eng.NewCPU(rc.onMessage)
	s.rclients = append(s.rclients, rc)
	return rc
}

// CPU exposes the client's CPU (stats).
func (rc *RangeClient) CPU() *sim.CPU { return rc.cpu }

// Start issues the client's first scan.
func (rc *RangeClient) Start() {
	rc.cpu.Exec(func(c *sim.CPU) {
		rc.issueScan(c, rc.next(rc.seq))
	})
}

// Stop lets the in-flight scan finish its remaining pages and then
// goes quiet, so running the engine dry quiesces with complete scans.
func (rc *RangeClient) Stop() { rc.stopped = true }

// issueScan validates and starts one scan from its low edge.
func (rc *RangeClient) issueScan(c *sim.CPU, op RangeOp) {
	if op.Lo >= op.Hi || op.Lo < 0 || op.Hi > rc.s.keySpace {
		panic(fmt.Sprintf("pimskip: range scan [%d, %d) outside key space [0, %d)",
			op.Lo, op.Hi, rc.s.keySpace))
	}
	rc.cur = op
	rc.cursor = op.Lo
	rc.keys = rc.keys[:0]
	rc.issuedAt = c.Clock()
	c.ProfOpStart()
	rc.issuePage(c)
}

// issuePage sends the next page request to the partition the directory
// says owns the cursor. One last-level-cache access for the lookup,
// as with point ops.
func (rc *RangeClient) issuePage(c *sim.CPU) {
	c.LLCRead()
	c.Send(sim.Message{
		To: rc.dir.Lookup(rc.cursor), Kind: MsgRange,
		Key: rc.cursor, Val: rc.cur.Hi, Payload: rc.cur.Limit,
	})
}

func (rc *RangeClient) onMessage(c *sim.CPU, m sim.Message) {
	switch m.Kind {
	case MsgRangeResp:
		if chunk, ok := m.Payload.([]int64); ok {
			rc.keys = append(rc.keys, chunk...)
			rc.KeysReturned += uint64(len(chunk))
		}
		if !m.OK {
			return // more chunks of this page in flight
		}
		rc.Pages++
		rc.cursor = m.Val
		if rc.cursor < rc.cur.Hi {
			rc.issuePage(c)
			return
		}
		rc.Completed++
		c.CountOp()
		c.ProfOpEnd()
		d := c.Clock() - rc.issuedAt
		rc.Latency.Observe(int64(d))
		rc.s.eng.RecordOpLatency(MsgRange, d)
		if rc.OnScan != nil {
			rc.OnScan(rc.cur, rc.keys)
		}
		if rc.OnComplete != nil {
			rc.OnComplete(rc.issuedAt, c.Clock(), rc.cur, rc.keys)
		}
		rc.seq++
		if !rc.stopped {
			rc.issueScan(c, rc.next(rc.seq))
		}
	case MsgReject:
		// Stale directory (or a migration in progress at the serving
		// core): re-read the directory and resend the current page.
		rc.Rejections++
		rc.issuePage(c)
	case MsgDirUpdate:
		rc.DirUpdates++
		c.LLCWrite()
		rc.dir.Update(m.Key, m.Val, m.Payload.(sim.CoreID))
		c.Send(sim.Message{To: m.From, Kind: MsgDirAck})
	default:
		panic("pimskip: range client received unknown message kind")
	}
}

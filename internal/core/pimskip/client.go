package pimskip

import (
	"pimds/internal/cds/seqskip"
	"pimds/internal/obs"
	"pimds/internal/sim"
)

// Client is a closed-loop CPU client of the PIM skip-list. It owns a
// private copy of the sentinel directory (Section 4.2: "CPUs also store
// a copy of each sentinel node in regular DRAM"), routes each request
// by directory lookup, retries rejected requests after re-reading the
// directory, and participates in the migration protocol by applying
// directory updates and acknowledging them.
type Client struct {
	s    *SkipList
	cpu  *sim.CPU
	dir  *Directory
	next func(seq uint64) seqskip.Op

	seq      int64 // next request number (int64: also used as op id)
	cur      seqskip.Op
	stopped  bool
	issuedAt sim.Time

	// Latency records response times (first issue to final response,
	// including rejection retries) in picoseconds.
	Latency *obs.Histogram

	// Stats.
	Completed  uint64
	Rejections uint64
	DirUpdates uint64

	// OnResult, if set, observes every completed operation and its
	// result in completion order (tests).
	OnResult func(op seqskip.Op, ok bool)

	// OnComplete, if set, additionally reports the operation's
	// virtual-time interval (linearizability tests).
	OnComplete func(start, end sim.Time, op seqskip.Op, ok bool)
}

// NewClient registers a closed-loop client issuing the operation stream
// produced by next. Call Start (or use a harness) to begin.
func (s *SkipList) NewClient(next func(seq uint64) seqskip.Op) *Client {
	cl := &Client{s: s, dir: s.auth.Clone(), next: next, Latency: &obs.Histogram{}}
	cl.cpu = s.eng.NewCPU(cl.onMessage)
	s.clients = append(s.clients, cl)
	return cl
}

// CPU exposes the client's CPU (stats).
func (cl *Client) CPU() *sim.CPU { return cl.cpu }

// Directory exposes the client's private directory copy (tests).
func (cl *Client) Directory() *Directory { return cl.dir }

// Start issues the client's first request.
func (cl *Client) Start() {
	cl.cpu.Exec(func(c *sim.CPU) {
		cl.issue(c, cl.next(uint64(cl.seq)))
	})
}

// Stop makes the client finish its in-flight request and then go
// quiet. Running the engine dry after stopping every client quiesces
// the system so tests can check exact invariants.
func (cl *Client) Stop() { cl.stopped = true }

// issue sends op to the partition the client believes owns the key.
// The directory lookup is one last-level-cache access (the sentinels
// are hot). Latency is measured from the first issue, so rejection
// retries count toward the same operation.
func (cl *Client) issue(c *sim.CPU, op seqskip.Op) {
	if cl.cur != op || cl.Completed+cl.Rejections == 0 {
		cl.issuedAt = c.Clock()
		c.ProfOpStart()
	}
	cl.cur = op
	c.LLCRead()
	kind := MsgContains
	switch op.Kind {
	case seqskip.Add:
		kind = MsgAdd
	case seqskip.Remove:
		kind = MsgRemove
	}
	c.Send(sim.Message{To: cl.dir.Lookup(op.Key), Kind: kind, Key: op.Key})
}

func (cl *Client) onMessage(c *sim.CPU, m sim.Message) {
	switch m.Kind {
	case MsgResp:
		cl.Completed++
		c.CountOp()
		c.ProfOpEnd()
		d := c.Clock() - cl.issuedAt
		cl.Latency.Observe(int64(d))
		kind := MsgContains
		switch cl.cur.Kind {
		case seqskip.Add:
			kind = MsgAdd
		case seqskip.Remove:
			kind = MsgRemove
		}
		cl.s.eng.RecordOpLatency(kind, d)
		if cl.OnResult != nil {
			cl.OnResult(cl.cur, m.OK)
		}
		if cl.OnComplete != nil {
			cl.OnComplete(cl.issuedAt, c.Clock(), cl.cur, m.OK)
		}
		cl.seq++
		if !cl.stopped {
			cl.issue(c, cl.next(uint64(cl.seq)))
		}
	case MsgReject:
		// Our directory was stale; by now the MsgDirUpdate has been
		// applied (it arrived before this rejection or will shortly);
		// re-read the directory and resend.
		cl.Rejections++
		if !cl.stopped {
			cl.issue(c, cl.cur)
		}
	case MsgDirUpdate:
		cl.DirUpdates++
		c.LLCWrite()
		cl.dir.Update(m.Key, m.Val, m.Payload.(sim.CoreID))
		c.Send(sim.Message{To: m.From, Kind: MsgDirAck})
	default:
		panic("pimskip: client received unknown message kind")
	}
}

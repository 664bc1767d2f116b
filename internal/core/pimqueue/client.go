package pimqueue

import (
	"fmt"

	"pimds/internal/obs"
	"pimds/internal/sim"
)

// Role selects what a queue client does in its closed loop.
type Role int

// Client roles.
const (
	Enqueuer Role = iota // only enqueues
	Dequeuer             // only dequeues
	Mixed                // alternates enqueue / dequeue
)

// Client is a closed-loop CPU client of the PIM queue. It tracks its
// belief of which cores own the enqueue and dequeue segments, updated
// by owner notifications; when a request fails because the belief was
// stale, it either retries at the newly learned owner or broadcasts a
// discovery query to every core (the paper's non-blocking scheme).
type Client struct {
	q    *Queue
	cpu  *sim.CPU
	idx  int
	role Role

	enqOwner sim.CoreID
	deqOwner sim.CoreID

	nextEnq   bool  // Mixed role: alternate
	seq       int64 // per-client enqueue sequence number
	searching int   // 0 = no, 1 = enq, 2 = deq
	negatives int   // discovery replies saying "not me"
	stopped   bool

	// AckDelay, when positive, makes this client a "slow CPU": it
	// withholds ownership acknowledgements (blocking scheme) for this
	// long — the failure mode the paper gives for preferring the
	// non-blocking notification scheme ("if there is a slow CPU core
	// that doesn't reply in time, the PIM core has to wait for it and
	// therefore other CPUs cannot have their requests executed").
	AckDelay sim.Time

	// SplitEvery, when positive, implements the paper's footnote-4
	// alternative: this client asks the enqueue core to create a new
	// segment after every SplitEvery successful enqueues, instead of
	// relying on the core's own length threshold.
	SplitEvery int
	sinceSplit int

	issuedAt sim.Time

	// Latency records response times (first issue to success,
	// including failure/rediscovery retries) in picoseconds.
	Latency *obs.Histogram

	// Stats and test hooks.
	Enqueued   uint64
	Dequeued   uint64
	Empty      uint64
	Retries    uint64
	Discovered uint64

	// OnDequeue, if set, observes every dequeued value (tests).
	OnDequeue func(v int64)

	// OnComplete, if set, observes every completed operation with its
	// virtual-time interval: kind is the request kind (MsgEnq/MsgDeq),
	// value the enqueued/dequeued value, ok false for empty dequeues.
	// Used by the linearizability tests.
	OnComplete func(start, end sim.Time, kind int, value int64, ok bool)
}

// NewClient registers a closed-loop client with the given role. Call
// Start to begin issuing requests.
func (q *Queue) NewClient(role Role) *Client {
	cl := &Client{q: q, idx: len(q.clients), role: role, Latency: &obs.Histogram{}}
	cl.cpu = q.eng.NewCPU(cl.onMessage)
	// Seed owner beliefs from the current owners (Preload may already
	// have moved the enqueue segment off core 0); -1 mid-handoff falls
	// back to core 0 and the failure/rediscovery path corrects it.
	cl.enqOwner = q.cores[0].core.ID()
	cl.deqOwner = q.cores[0].core.ID()
	if i := q.EnqOwner(); i >= 0 {
		cl.enqOwner = q.cores[i].core.ID()
	}
	if i := q.DeqOwner(); i >= 0 {
		cl.deqOwner = q.cores[i].core.ID()
	}
	q.clients = append(q.clients, cl)
	return cl
}

// CPU exposes the client's CPU (stats).
func (cl *Client) CPU() *sim.CPU { return cl.cpu }

// Value encodes (client, seq) so tests can check exactly-once delivery
// and per-producer FIFO order.
func (cl *Client) nextValue() int64 {
	v := int64(cl.idx)<<32 | cl.seq
	cl.seq++
	return v
}

// Start issues the client's first request.
func (cl *Client) Start() {
	cl.cpu.Exec(func(c *sim.CPU) { cl.issue(c) })
}

// Stop makes the client finish its in-flight request and then go
// quiet, so tests can quiesce the system by running the engine dry.
func (cl *Client) Stop() { cl.stopped = true }

func (cl *Client) issue(c *sim.CPU) {
	if cl.stopped {
		return
	}
	cl.issuedAt = c.Clock()
	c.ProfOpStart()
	enq := false
	switch cl.role {
	case Enqueuer:
		enq = true
	case Dequeuer:
		enq = false
	case Mixed:
		enq = cl.nextEnq
		cl.nextEnq = !cl.nextEnq
	}
	if enq {
		c.Send(sim.Message{To: cl.enqOwner, Kind: MsgEnq, Key: cl.nextValue()})
	} else {
		c.Send(sim.Message{To: cl.deqOwner, Kind: MsgDeq})
	}
}

// retry re-sends the failed request. The failed enqueue's value was
// never stored (the core rejected it), so re-encoding the same value
// requires rolling the sequence back.
func (cl *Client) retryEnq(c *sim.CPU) {
	if cl.stopped {
		return
	}
	cl.seq--
	c.Send(sim.Message{To: cl.enqOwner, Kind: MsgEnq, Key: cl.nextValue()})
}

// retryDeq re-sends a dequeue at the current believed owner.
func (cl *Client) retryDeq(c *sim.CPU) {
	if cl.stopped {
		return
	}
	c.Send(sim.Message{To: cl.deqOwner, Kind: MsgDeq})
}

func (cl *Client) onMessage(c *sim.CPU, m sim.Message) {
	switch m.Kind {
	case MsgEnqOK:
		cl.Enqueued++
		c.CountOp()
		c.ProfOpEnd()
		cl.Latency.Observe(int64(c.Clock() - cl.issuedAt))
		cl.q.eng.RecordOpLatency(MsgEnq, c.Clock()-cl.issuedAt)
		if cl.OnComplete != nil {
			cl.OnComplete(cl.issuedAt, c.Clock(), MsgEnq, int64(cl.idx)<<32|(cl.seq-1), true)
		}
		if cl.SplitEvery > 0 {
			cl.sinceSplit++
			if cl.sinceSplit >= cl.SplitEvery {
				cl.sinceSplit = 0
				c.Send(sim.Message{To: cl.enqOwner, Kind: MsgSplit})
			}
		}
		cl.issue(c)
	case MsgDeqOK:
		cl.Dequeued++
		c.CountOp()
		c.ProfOpEnd()
		cl.Latency.Observe(int64(c.Clock() - cl.issuedAt))
		cl.q.eng.RecordOpLatency(MsgDeq, c.Clock()-cl.issuedAt)
		if cl.OnDequeue != nil {
			cl.OnDequeue(m.Key)
		}
		if cl.OnComplete != nil {
			cl.OnComplete(cl.issuedAt, c.Clock(), MsgDeq, m.Key, true)
		}
		cl.issue(c)
	case MsgDeqEmpty:
		cl.Empty++
		c.CountOp()
		c.ProfOpEnd()
		if cl.OnComplete != nil {
			cl.OnComplete(cl.issuedAt, c.Clock(), MsgDeq, 0, false)
		}
		cl.issue(c)
	case MsgEnqFail:
		cl.Retries++
		if m.From != cl.enqOwner {
			// A notification already updated our belief; retry there.
			cl.retryEnq(c)
			return
		}
		cl.startSearch(c, 1)
	case MsgDeqFail:
		cl.Retries++
		if m.From != cl.deqOwner {
			cl.retryDeq(c)
			return
		}
		cl.startSearch(c, 2)
	case MsgEnqOwner:
		cl.enqOwner = m.From
		c.Local()
		if cl.q.BlockingNotify {
			cl.sendAck(c, m.From)
		}
		if cl.searching == 1 {
			cl.searching = 0
			cl.Discovered++
			cl.retryEnq(c)
		}
	case MsgDeqOwner:
		cl.deqOwner = m.From
		c.Local()
		if cl.q.BlockingNotify {
			cl.sendAck(c, m.From)
		}
		if cl.searching == 2 {
			cl.searching = 0
			cl.Discovered++
			cl.retryDeq(c)
		}
	case MsgFindResp:
		cl.handleFindResp(c, m)
	default:
		panic(fmt.Sprintf("pimqueue: client %d: unknown message kind %d", cl.idx, m.Kind))
	}
}

// sendAck acknowledges an ownership notification, stalling first when
// the client is configured as a slow CPU.
func (cl *Client) sendAck(c *sim.CPU, to sim.CoreID) {
	if cl.AckDelay > 0 {
		c.Compute(cl.AckDelay)
	}
	c.Send(sim.Message{To: to, Kind: MsgOwnerAck})
}

// startSearch broadcasts a discovery query to every core (Section 5.1:
// "it needs to send messages to all PIM cores to ask which PIM core is
// currently in charge").
func (cl *Client) startSearch(c *sim.CPU, what int) {
	cl.searching = what
	cl.negatives = 0
	kind := MsgFindEnq
	if what == 2 {
		kind = MsgFindDeq
	}
	for _, qc := range cl.q.cores {
		c.Send(sim.Message{To: qc.core.ID(), Kind: kind})
	}
}

func (cl *Client) handleFindResp(c *sim.CPU, m sim.Message) {
	if cl.searching == 0 || int(m.Val) != cl.searching {
		return // stale response from an earlier search
	}
	if m.OK {
		cl.Discovered++
		if cl.searching == 1 {
			cl.enqOwner = m.From
			cl.searching = 0
			cl.retryEnq(c)
		} else {
			cl.deqOwner = m.From
			cl.searching = 0
			cl.retryDeq(c)
		}
		return
	}
	cl.negatives++
	if cl.negatives >= len(cl.q.cores) && !cl.stopped {
		// Every core denied ownership: the handoff message is still
		// in flight. Ask again.
		cl.startSearch(c, cl.searching)
	}
}

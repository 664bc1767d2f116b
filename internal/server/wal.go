package server

// This file is the durability side of the server: the WAL commit
// pipeline, periodic snapshots, and recovery. The design extends the
// paper's flat-combining argument to storage — the combiner already
// applies whole batches, so one log record and (in the default policy)
// one fsync cover every op the batch acknowledged: group commit falls
// out of the combining structure instead of needing its own batching
// timer.
//
// Ordering is the subtle part. Acks are released by a single WAL
// writer goroutine in combiner order, and *every* batch — including
// read-only ones that produce no record — rides the same FIFO. A read
// that observed a write therefore cannot be acknowledged before that
// write is durable; without this, a crash between the read's ack and
// the write's fsync would recover a state the already-acknowledged
// read contradicts, and the replayed history would not linearize.
//
//pimvet:allow-file determinism: the snapshot ticker and ack-latency stamps run on host wall-clock time by design; nothing here feeds back into simulated behaviour

import (
	"fmt"
	"time"

	"pimds/internal/obs"
	"pimds/internal/wal"
	"pimds/internal/wal/snapshot"
	"pimds/internal/wire"
)

// Fsync policies accepted by Config.Fsync.
const (
	// FsyncAlways forces every record to disk before its batch is
	// acknowledged: one fsync per combiner batch.
	FsyncAlways = "always"
	// FsyncBatch (the default) forces once per writer pass: the writer
	// greedily gathers every commit the combiners have produced, appends
	// their records, and fsyncs the group together — group commit on top
	// of group commit.
	FsyncBatch = "batch"
	// FsyncOff flushes records to the kernel but never fsyncs; a process
	// crash loses nothing, a machine crash can lose the tail.
	FsyncOff = "off"
)

// walCommitsPerShard is each shard's pass count with a WAL: one pass
// being filled by the combiner while one drains through the writer. A
// shard whose writer falls further behind blocks on its free list —
// the same structural backpressure the publication queues apply.
const walCommitsPerShard = 2

// walState is the server's durability pipeline.
type walState struct {
	dir    string
	always bool // fsync per record
	off    bool // never fsync

	log     *wal.Log   // writer goroutine only (after recovery)
	commits chan *pass // combiners → writer, FIFO across shards
	ackq    []*pass    // writer-local: appended but not yet synced+acked
	pending int        // writer-local: records appended but not yet synced

	started    bool // writer goroutine launched (guarded by Server.mu)
	writerDone chan struct{}
	snapStop   chan struct{}
	snapDone   chan struct{}

	records  *obs.Counter
	bytes    *obs.Counter
	fsyncs   *obs.Counter
	snaps    *obs.Counter
	replayed *obs.Counter
	restored *obs.Counter
	lag      *obs.Histogram
	group    *obs.Histogram
}

// newWALState validates the durability config and builds the pipeline
// skeleton; the log itself is opened during recovery.
func newWALState(cfg Config) (*walState, error) {
	w := &walState{
		dir:     cfg.WALDir,
		commits: make(chan *pass, walCommitsPerShard*cfg.Shards+4),

		records:  cfg.Reg.Counter("server/wal/records"),
		bytes:    cfg.Reg.Counter("server/wal/bytes"),
		fsyncs:   cfg.Reg.Counter("server/wal/fsyncs"),
		snaps:    cfg.Reg.Counter("server/wal/snapshots"),
		replayed: cfg.Reg.Counter("server/wal/replayed_ops"),
		restored: cfg.Reg.Counter("server/wal/restored_keys"),
		lag:      cfg.Reg.Histogram("server/wal/lag_ns"),
		group:    cfg.Reg.Histogram("server/wal/group"),
	}
	switch cfg.Fsync {
	case FsyncAlways:
		w.always = true
	case FsyncBatch:
	case FsyncOff:
		w.off = true
	default:
		return nil, fmt.Errorf("server: unknown fsync policy %q (want %s|%s|%s)",
			cfg.Fsync, FsyncAlways, FsyncBatch, FsyncOff)
	}
	return w, nil
}

// stageRecord fills the pass's record inside the combining window:
// header, then every mutating op in batch order, then the CRC seal.
// Read-only batches seal to an empty record — nothing to log, but the
// pass still rides the pipeline so its acks stay ordered after earlier
// durable writes. Part of the pinned window: stages bytes only, never
// touches a file.
//
//pimvet:allocfree //pimvet:nonblocking
//pimvet:window
func (sh *shard) stageRecord(ps *pass) {
	ps.buf = wal.BeginRecord(ps.buf[:0], uint16(sh.idx), sh.walSeq+1)
	n := 0
	for i := range ps.ops {
		if ps.ops[i].Kind.Mutating() {
			ps.buf = wire.AppendOp(ps.buf, ps.ops[i])
			n++
		}
	}
	ps.buf = wal.FinishRecord(ps.buf, n)
	if n > 0 {
		sh.walSeq++
	}
}

// walWriter is the dedicated writer goroutine: it gathers passes
// greedily (mirroring the combiners' own gather loop), appends their
// records through one buffered file, makes the group durable according
// to the fsync policy, and only then releases each pass's acks, which
// recycles the pass to its shard's free list.
func (s *Server) walWriter() {
	w := s.wal
	defer close(w.writerDone)
	for {
		ps, ok := <-w.commits
		if !ok {
			return
		}
		s.walAdmit(ps)
	gather:
		for {
			select {
			case ps, ok := <-w.commits:
				if !ok {
					s.walRelease()
					return
				}
				s.walAdmit(ps)
			default:
				break gather
			}
		}
		s.walRelease()
	}
}

// walAdmit appends one pass's record (if any), counting it in
// w.pending, and queues its acks; control items first retire
// everything pending — including a real sync for any unsynced records
// appended earlier in this gather pass — then run. In FsyncAlways mode
// each admit retires immediately.
func (s *Server) walAdmit(ps *pass) {
	w := s.wal
	if ps.fn != nil {
		s.walRelease()
		ps.fn()
		return
	}
	if len(ps.buf) > 0 {
		if err := w.log.Append(ps.buf); err != nil {
			// Durability is the contract; a log the server cannot append
			// to means every future ack would be a lie. Fail stop.
			panic(fmt.Sprintf("server: wal append: %v", err))
		}
		w.records.Inc()
		w.bytes.Add(uint64(len(ps.buf)))
		w.pending++
	}
	w.ackq = append(w.ackq, ps)
	if w.always {
		s.walRelease()
	}
}

// walRelease makes every unsynced record durable and releases every
// queued ack. pending == 0 (only read-only batches queued) skips the
// sync: nothing new was appended, and everything those reads observed
// was covered by an earlier sync in the FIFO.
func (s *Server) walRelease() {
	w := s.wal
	if w.pending > 0 {
		if err := w.log.Sync(); err != nil {
			panic(fmt.Sprintf("server: wal sync: %v", err))
		}
		if !w.off {
			w.fsyncs.Inc()
		}
		w.group.Observe(int64(w.pending))
		w.pending = 0
	}
	if len(w.ackq) == 0 {
		return
	}
	tAck := s.now()
	for _, ps := range w.ackq {
		// Read end before release hands the pass back to its combiner.
		w.lag.Observe(tAck - ps.end)
		s.release(ps, tAck)
	}
	w.ackq = w.ackq[:0]
}

// recoverWAL rebuilds state from the newest valid snapshot plus the
// log tail, opens the log for appending, and starts the writer (and
// the snapshot scheduler, when configured). Serve calls it before
// accepting connections; /healthz reports "recovering" (503, not
// ready) from New until it completes.
func (s *Server) recoverWAL() error {
	if s.wal == nil {
		return nil
	}
	var err error
	s.walOnce.Do(func() { err = s.doRecover() })
	return err
}

func (s *Server) doRecover() error {
	w := s.wal

	// Restore the newest valid snapshot: each shard's canonical dump
	// plus the per-shard WAL sequence number that dump includes.
	doc, snapSeg, haveSnap, err := snapshot.Latest(w.dir)
	if err != nil {
		return err
	}
	from := uint64(0)
	snapSeqs := make([]uint64, len(s.shards))
	if haveSnap {
		if len(doc.Shards) != len(s.shards) {
			return fmt.Errorf("server: snapshot in %s captures %d shards, server configured with %d",
				w.dir, len(doc.Shards), len(s.shards))
		}
		for i, sh := range s.shards {
			sh.be.RestoreState(doc.Shards[i].State)
			sh.walSeq = doc.Shards[i].Seq
			snapSeqs[i] = doc.Shards[i].Seq
			w.restored.Add(uint64(len(doc.Shards[i].State)))
		}
		from = snapSeg
	}

	// Replay the log tail. Records already folded into the snapshot
	// (seq ≤ the snapshot's per-shard sequence) are skipped — the
	// snapshot rolled to a fresh segment first, so only records in that
	// boundary segment can be duplicates. Replay itself truncates a
	// torn or corrupt tail.
	var out []wire.Result
	res, err := wal.Replay(w.dir, from, func(rec wal.Record) error {
		if int(rec.Shard) >= len(s.shards) {
			return fmt.Errorf("server: wal record for shard %d, server configured with %d shards",
				rec.Shard, len(s.shards))
		}
		sh := s.shards[rec.Shard]
		if rec.Seq <= snapSeqs[rec.Shard] {
			return nil
		}
		if rec.Seq != sh.walSeq+1 {
			return fmt.Errorf("server: wal shard %d sequence gap: have %d, next record is %d",
				rec.Shard, sh.walSeq, rec.Seq)
		}
		if cap(out) < len(rec.Ops) {
			out = make([]wire.Result, len(rec.Ops))
		}
		sh.arena = sh.be.ApplyBatch(rec.Ops, out[:len(rec.Ops)], sh.arena[:0])
		sh.walSeq = rec.Seq
		w.replayed.Add(uint64(len(rec.Ops)))
		return nil
	})
	if err != nil {
		return err
	}

	log, err := wal.Open(w.dir, res.NextSeg, !w.off)
	if err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		// Shutdown won the race; the pipeline must not start.
		log.Close()
		return nil
	}
	w.log = log
	w.started = true
	w.writerDone = make(chan struct{})
	go s.walWriter()
	if s.cfg.SnapshotEvery > 0 {
		w.snapStop = make(chan struct{})
		w.snapDone = make(chan struct{})
		go s.snapLoop(s.cfg.SnapshotEvery)
	}
	s.recovering.Store(false)
	return nil
}

// snapLoop takes a snapshot every interval. It stops before the
// combiners do (Shutdown order), so its hand-offs to them and to the
// writer always have a live peer.
func (s *Server) snapLoop(interval time.Duration) {
	w := s.wal
	defer close(w.snapDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-w.snapStop:
			return
		case <-t.C:
			if err := s.snapshotOnce(); err != nil {
				// A failed snapshot costs replay time, not correctness:
				// the log is still intact and still authoritative. Skip
				// the prune and try again next tick.
				continue
			}
		}
	}
}

// snapshotOnce rolls the log to a fresh segment, captures every
// shard's state in its own combiner (so each dump is a consistent
// point in that shard's serial order), writes the snapshot atomically,
// and prunes the log and snapshots it supersedes.
//
// Correctness of the truncation: the roll happens on the writer, in
// commit order, *before* the dumps are taken — so every record in a
// closed segment has seq ≤ the dump's sequence number for its shard
// and is covered by the snapshot. Records racing into the new boundary
// segment while the dumps are taken may or may not be covered; replay
// resolves this per record by comparing seq against the snapshot's,
// which is why duplicates in the boundary segment are harmless.
func (s *Server) snapshotOnce() error {
	w := s.wal

	rolled := make(chan uint64, 1)
	w.commits <- &pass{fn: func() {
		if err := w.log.Roll(); err != nil {
			panic(fmt.Sprintf("server: wal roll: %v", err))
		}
		rolled <- w.log.Seg()
	}}
	newSeg := <-rolled

	doc := &snapshot.Doc{Shards: make([]snapshot.Shard, len(s.shards))}
	for i, sh := range s.shards {
		i, sh := i, sh
		done := make(chan struct{})
		sh.ctl <- func() {
			doc.Shards[i] = snapshot.Shard{Seq: sh.walSeq, State: sh.be.AppendState(nil)}
			close(done)
		}
		<-done
	}

	if err := snapshot.Write(w.dir, newSeg, doc); err != nil {
		return err
	}
	w.snaps.Inc()
	if err := wal.Prune(w.dir, newSeg); err != nil {
		return err
	}
	return snapshot.Prune(w.dir, newSeg)
}

// finalSnapshot runs at quiescence, after the combiners and the WAL
// writer have exited: it captures the drained state directly, making
// the next start's recovery a pure snapshot restore with an empty log
// tail. Errors are swallowed — a missed final snapshot just means the
// next start replays the log instead.
func (s *Server) finalSnapshot() {
	w := s.wal
	defer w.log.Close()
	if err := w.log.Roll(); err != nil {
		return
	}
	doc := &snapshot.Doc{Shards: make([]snapshot.Shard, len(s.shards))}
	for i, sh := range s.shards {
		doc.Shards[i] = snapshot.Shard{Seq: sh.walSeq, State: sh.be.AppendState(nil)}
	}
	newSeg := w.log.Seg()
	if err := snapshot.Write(w.dir, newSeg, doc); err != nil {
		return
	}
	w.snaps.Inc()
	if wal.Prune(w.dir, newSeg) == nil {
		snapshot.Prune(w.dir, newSeg)
	}
}

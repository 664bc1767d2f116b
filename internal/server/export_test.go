package server

// RotateOnce forces one window rotation and health re-evaluation, so
// tests can close window intervals deterministically instead of
// waiting out the ticker.
//
//pimvet:rotator test-only deterministic rotation
func (s *Server) RotateOnce() { s.rotateOnce() }

// HistoryOp maps a client-observed op and result onto the
// linearizability checker's vocabulary, through the same mapping the
// server's op log uses.
var HistoryOp = historyOp

// RecoverForTest runs WAL recovery (snapshot restore + log replay +
// pipeline start) without a listener, so tests can rebuild state and
// inspect it directly.
func (s *Server) RecoverForTest() error { return s.recoverWAL() }

// StateDumps returns every shard's canonical state dump. Only
// meaningful at quiescence (after Shutdown, or after RecoverForTest
// with no traffic).
func (s *Server) StateDumps() [][]int64 {
	dumps := make([][]int64, len(s.shards))
	for i, sh := range s.shards {
		dumps[i] = sh.be.AppendState(nil)
	}
	return dumps
}

// WALSeqs returns every shard's WAL sequence number, for tests
// asserting on snapshot/replay bookkeeping. Quiescence only.
func (s *Server) WALSeqs() []uint64 {
	seqs := make([]uint64, len(s.shards))
	for i, sh := range s.shards {
		seqs[i] = sh.walSeq
	}
	return seqs
}

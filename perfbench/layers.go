package main

//pimvet:allow-file determinism: the benchmark measures the host serve path in wall-clock time by design; its inputs stay seeded and nothing here feeds back into simulated time

import (
	"time"

	"pimds/internal/cds/seqskip"
	"pimds/internal/wal"
	"pimds/internal/wire"
)

// Layer replays feed one workload's op stream (connection 0's, from the
// run's seed) straight through one layer's public functions, with no
// server around them.

const (
	skipReplayOps   = 1 << 17
	walReplayFrames = 256
	walReplayBudget = 3 * time.Second
	wireReplayOps   = 1 << 19
)

// skipReplay is the seqskip replay's result.
type skipReplay struct {
	stepsPerOp   float64 // node visits per op, an exact count
	pointNSPerOp float64
	scanNSPerKey float64
}

// replaySkip rebuilds shard 0 as the server holds it — the same tower
// seed, shard 0's preloaded keys — and applies the stream's ops that
// land on shard 0, scans clamped to the shard as the server clamps
// them. Consecutive ops of one class (point or scan) are timed
// together, so the clock is read about once per scan.
func replaySkip(w workload, seed int64, preload [][]int64) (skipReplay, error) {
	upper := w.keySpace / shards
	l := seqskip.New(1) // server.Config.Seed's default, shard 0
	for _, keys := range preload {
		for _, k := range keys {
			if k < upper {
				l.AddKey(k)
			}
		}
	}
	s, err := newOpStream(w, seed, 0)
	if err != nil {
		return skipReplay{}, err
	}
	ops := make([]wire.Op, 0, skipReplayOps)
	for len(ops) < skipReplayOps {
		if op := s.next(); op.Key < upper {
			if op.Hi > upper {
				op.Hi = upper
			}
			ops = append(ops, op)
		}
	}
	l.ResetSteps()
	var arena []int64
	var pointNS, scanNS, points, scanKeys int64
	runScan, runStart := false, time.Now()
	closeRun := func() {
		d := int64(time.Since(runStart))
		if runScan {
			scanNS += d
		} else {
			pointNS += d
		}
	}
	for _, op := range ops {
		if scan := op.Kind == wire.RangeScan; scan != runScan {
			closeRun()
			runScan, runStart = scan, time.Now()
		}
		switch op.Kind {
		case wire.Contains:
			l.ContainsKey(op.Key)
		case wire.Add:
			l.AddKey(op.Key)
		case wire.Remove:
			l.RemoveKey(op.Key)
		case wire.RangeScan:
			var n int
			arena, n, _ = l.RangeScanInto(op.Key, op.Hi, wire.MaxScanLimit, arena[:0])
			scanKeys += int64(n)
			continue
		}
		points++
	}
	closeRun()
	r := skipReplay{stepsPerOp: float64(l.Steps()) / skipReplayOps}
	if points > 0 {
		r.pointNSPerOp = float64(pointNS) / float64(points)
	}
	if scanKeys > 0 {
		r.scanNSPerKey = float64(scanNS) / float64(scanKeys)
	}
	return r, nil
}

// replayWAL logs the stream's mutating ops the way the durable server
// does — one record per (frame, shard) holding that shard's mutations,
// one group-commit Sync per frame — into a fresh log in dir. It
// returns the mean ns to encode and append one record and the median
// µs of one fsync'ing Sync.
func replayWAL(w workload, seed int64, dir string) (appendNS, syncUS float64, err error) {
	log, err := wal.Open(dir, 0, true)
	if err != nil {
		return 0, 0, err
	}
	s, err := newOpStream(w, seed, 0)
	if err != nil {
		log.Close()
		return 0, 0, err
	}
	var perShard [shards][]wire.Op
	var buf []byte
	var seqs [shards]uint64
	var records, recNS int64
	var syncs []float64
	start := time.Now()
	for f := 0; f < walReplayFrames && time.Since(start) < walReplayBudget; f++ {
		for i := 0; i < frameOps; i++ {
			op := s.next()
			if op.Kind.Mutating() {
				sh := op.Key * shards / w.keySpace
				perShard[sh] = append(perShard[sh], op)
			}
		}
		t := time.Now()
		for sh := range perShard {
			if len(perShard[sh]) == 0 {
				continue
			}
			seqs[sh]++
			buf = wal.AppendRecord(buf[:0], uint16(sh), seqs[sh], perShard[sh])
			if err := log.Append(buf); err != nil {
				log.Close()
				return 0, 0, err
			}
			records++
			perShard[sh] = perShard[sh][:0]
		}
		recNS += int64(time.Since(t))
		t = time.Now()
		if err := log.Sync(); err != nil {
			log.Close()
			return 0, 0, err
		}
		syncs = append(syncs, float64(time.Since(t))/1e3)
	}
	if err := log.Close(); err != nil {
		return 0, 0, err
	}
	if records > 0 {
		appendNS = float64(recNS) / float64(records)
	}
	return appendNS, median(syncs), nil
}

// wireReplay is the wire replay's result: the server's halves of the
// protocol, which client-side spans cannot see.
type wireReplay struct {
	reqDecodeNSPerOp  float64
	respEncodeNSPerOp float64
}

// replayWire encodes the stream into request frames, then times the
// server's side of each: decoding the request, and encoding its
// results, a scan answering every other key of its span as a half-full
// set would.
func replayWire(w workload, seed int64) (wireReplay, error) {
	s, err := newOpStream(w, seed, 0)
	if err != nil {
		return wireReplay{}, err
	}
	ops := make([]wire.Op, frameOps)
	var req, resp []byte
	var dec []wire.Op
	results := make([]wire.Result, frameOps)
	var vals []int64
	var decNS, encNS int64
	for done := 0; done < wireReplayOps; done += frameOps {
		scans := false
		for i := range ops {
			ops[i] = s.next()
			ops[i].ID = uint64(done + i)
			scans = scans || ops[i].Kind == wire.RangeScan
		}
		if scans {
			req, err = wire.AppendRequestV2(req[:0], ops, wire.TraceContext{})
		} else {
			req, err = wire.AppendRequest(req[:0], ops)
		}
		if err != nil {
			return wireReplay{}, err
		}
		t := time.Now()
		dec, _, err = wire.DecodeRequestAny(req[4:], dec[:0])
		decNS += int64(time.Since(t))
		if err != nil {
			return wireReplay{}, err
		}
		vals = vals[:0]
		for i, op := range dec {
			results[i] = wire.Result{ID: op.ID, Status: wire.StatusOK, OK: true}
			if op.Kind == wire.RangeScan {
				start := len(vals)
				for k := op.Key; k < op.Hi; k += 2 {
					vals = append(vals, k)
				}
				results[i].Value = op.Hi
				results[i].Values = vals[start:len(vals):len(vals)]
			}
		}
		t = time.Now()
		resp, _, err = wire.AppendResponses(resp[:0], results)
		encNS += int64(time.Since(t))
		if err != nil {
			return wireReplay{}, err
		}
	}
	return wireReplay{
		reqDecodeNSPerOp:  float64(decNS) / wireReplayOps,
		respEncodeNSPerOp: float64(encNS) / wireReplayOps,
	}, nil
}

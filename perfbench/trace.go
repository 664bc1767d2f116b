package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"pimds/internal/obs"
	"pimds/internal/prof"
)

// writeChrome writes the traced window as one Chrome trace: the
// server's retained SpanRecords (pid 1, one track per shard, each
// request tiled by its six components) and the client spans of the
// same frames (pid 2, one track per connection), joined by trace_id.
// It returns how many client frames appear on both sides.
func writeChrome(path string, cs []*client, in *instance) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	cw := obs.NewChromeWriter(bw)
	us := func(t time.Time, ns int64) float64 { return float64(t.UnixNano()+ns) / 1e3 }
	traced := map[string]bool{}
	named := map[int]bool{}
	for _, rec := range in.srv.TraceSpans() {
		traced[rec.TraceID] = true
		if !named[rec.Shard] {
			cw.ThreadName(1, rec.Shard, fmt.Sprintf("shard %d", rec.Shard))
			named[rec.Shard] = true
		}
		at := us(in.epoch, rec.StartNS)
		cw.Complete(rec.Kind, "server", at, float64(rec.E2ENS)/1e3, 1, rec.Shard,
			map[string]interface{}{"trace_id": rec.TraceID, "op_id": rec.OpID, "conn": rec.Conn})
		for _, name := range prof.ServerComponents() {
			d := float64(rec.ComponentsNS[name]) / 1e3
			cw.Complete(name, "component", at, d, 1, rec.Shard, nil)
			at += d
		}
	}
	frames := map[string]bool{}
	for _, c := range cs {
		cw.ThreadName(2, c.id, fmt.Sprintf("client conn %d", c.id))
		for _, sp := range c.spans {
			id := fmt.Sprintf("0x%016x", sp.traceID)
			if !traced[id] {
				continue
			}
			frames[id] = true
			cw.Complete(sp.name, "client", us(epoch, sp.start), float64(sp.end-sp.start)/1e3, 2, c.id,
				map[string]interface{}{"trace_id": id})
		}
	}
	err = cw.Close()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return len(frames), err
}

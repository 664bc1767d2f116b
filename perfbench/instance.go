package main

//pimvet:allow-file determinism: the benchmark measures the host serve path in wall-clock time by design; its inputs stay seeded and nothing here feeds back into simulated time

import (
	"net"
	"os"
	"time"

	"pimds/internal/obs"
	"pimds/internal/server"
	"pimds/internal/wire"
)

// traceRing is the per-shard span ring of the server: the last
// sampled spans it keeps for the Chrome trace, about the last 16
// sampled frames.
const traceRing = 512

// instance is one in-process server on a loopback listener.
type instance struct {
	srv   *server.Server
	reg   *obs.Registry
	addr  string
	epoch time.Time // taken just before server.New, which takes its own epoch first
	dir   string
	serve chan error
}

func startServer(w workload, dir string) (*instance, error) {
	reg := obs.NewRegistry()
	cfg := server.Config{
		Structure: server.StructSkip,
		Shards:    shards,
		KeySpace:  w.keySpace,
		Reg:       reg,
		TraceRing: traceRing,
	}
	if w.snapshotEvery > 0 {
		cfg.WALDir = dir
		cfg.Fsync = server.FsyncBatch
		cfg.SnapshotEvery = w.snapshotEvery
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in := &instance{reg: reg, addr: ln.Addr().String(), dir: dir, serve: make(chan error, 1), epoch: time.Now()}
	if in.srv, err = server.New(cfg); err != nil {
		ln.Close()
		return nil, err
	}
	go func() { in.serve <- in.srv.Serve(ln) }()
	return in, nil
}

// stop drains the server and waits for Serve to return.
func (in *instance) stop() error {
	in.srv.Shutdown()
	return <-in.serve
}

// setUp starts a server, connects fresh clients and preloads each
// client's keys, then probes every connection once, so the clients
// return ready for the measured window. A durable workload restarts
// the server on its directory after the preload, so set-up includes
// recovery. The returned duration is the benchmark's setup_s.
func setUp(w workload, seed int64, dir string, preload [][]int64) (*instance, []*client, time.Duration, error) {
	t0 := time.Now()
	in, err := startServer(w, dir)
	if err != nil {
		return nil, nil, 0, err
	}
	cs := make([]*client, conns)
	for i := range cs {
		if cs[i], err = newClient(w, seed, i); err == nil {
			err = cs[i].connect(in.addr)
		}
		if err != nil {
			tearDown(in, cs)
			return nil, nil, 0, err
		}
	}
	err = each(cs, func(c *client) error { return c.preload(preload[c.id]) })
	if err == nil && w.snapshotEvery > 0 {
		closeAll(cs)
		if err = in.stop(); err == nil {
			in, err = startServer(w, dir)
		}
		if err != nil {
			return nil, nil, 0, err
		}
		err = each(cs, func(c *client) error { return c.connect(in.addr) })
	}
	if err == nil {
		err = each(cs, func(c *client) error {
			c.keysFrame(wire.Contains, []int64{int64(c.id)})
			return c.roundTrip()
		})
	}
	if err != nil {
		tearDown(in, cs)
		return nil, nil, 0, err
	}
	return in, cs, time.Since(t0), nil
}

func closeAll(cs []*client) {
	for _, c := range cs {
		if c != nil {
			c.close()
		}
	}
}

// tearDown closes the clients first, so the server's drain does not
// wait for them, then stops the server and removes its directory.
func tearDown(in *instance, cs []*client) error {
	closeAll(cs)
	err := in.stop()
	if in.dir != "" {
		if rerr := os.RemoveAll(in.dir); err == nil {
			err = rerr
		}
	}
	return err
}

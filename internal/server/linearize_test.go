package server_test

import (
	"sync"
	"testing"
	"time"

	"pimds/internal/linearize"
	"pimds/internal/server"
	"pimds/internal/wire"
)

// runLoggedHistory drives nClients closed-loop clients (one op
// outstanding each, so the op log's per-connection program-order
// assumption holds) and returns two histories of the same run at
// quiescence: the server's op log (decode to apply end, on the server
// clock) and what the clients observed (before send to after receive,
// on the test's clock, with OK and Value taken from the received
// result). The second is what a release path that acked the wrong
// pass's results would corrupt while leaving the first intact.
func runLoggedHistory(t *testing.T, cfg server.Config, nClients, opsPerClient int, opFor func(cl, i int) wire.Op) (logged, observed []linearize.Op) {
	t.Helper()
	log := server.NewOpLog()
	cfg.Log = log
	srv, addr := startServer(t, cfg)

	epoch := time.Now()
	seen := make([][]linearize.Op, nClients)
	var wg sync.WaitGroup
	for cl := 0; cl < nClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c := dialRaw(t, addr)
			defer c.nc.Close()
			for i := 0; i < opsPerClient; i++ {
				op := opFor(cl, i)
				op.ID = uint64(i)
				start := time.Since(epoch).Nanoseconds()
				c.send(t, op)
				res := c.recv(t, 1)
				end := time.Since(epoch).Nanoseconds()
				r, ok := res[op.ID]
				if len(res) != 1 || !ok || r.Status != wire.StatusOK {
					t.Errorf("client %d op %d: results %+v", cl, i, res)
					return
				}
				seen[cl] = append(seen[cl], server.HistoryOp(op, r, start, end, cl))
			}
		}(cl)
	}
	wg.Wait()
	srv.Shutdown()
	for _, h := range seen {
		observed = append(observed, h...)
	}
	return log.Ops(), observed
}

// checkHistories checks both histories of one run against spec.
func checkHistories(t *testing.T, spec linearize.Spec, want int, logged, observed []linearize.Op) {
	t.Helper()
	for _, h := range []struct {
		name string
		ops  []linearize.Op
	}{{"op log", logged}, {"client-observed", observed}} {
		if want > 0 && len(h.ops) != want {
			t.Fatalf("%s history has %d ops, want %d", h.name, len(h.ops), want)
		}
		if !linearize.Check(spec, h.ops) {
			t.Fatalf("%s history is not linearizable", h.name)
		}
	}
}

// dialRaw is dial without t.Cleanup (clients close themselves so the
// history is complete before Shutdown).
func dialRaw(t *testing.T, addr string) *client {
	t.Helper()
	c := dial(t, addr)
	return c
}

func TestServerHistoryLinearizableSet(t *testing.T) {
	const nClients, perClient = 4, 40
	for _, mode := range []struct {
		name string
		cfg  func(t *testing.T) server.Config
	}{
		{"memory", func(*testing.T) server.Config {
			return server.Config{Structure: server.StructSkip, Shards: 2, KeySpace: 64}
		}},
		{"wal", func(t *testing.T) server.Config {
			return server.Config{Structure: server.StructSkip, Shards: 2, KeySpace: 64,
				WALDir: t.TempDir(), Fsync: server.FsyncBatch}
		}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			logged, observed := runLoggedHistory(t, mode.cfg(t), nClients, perClient,
				func(cl, i int) wire.Op {
					k := int64((cl*13 + i*5) % 64)
					switch (cl + i) % 3 {
					case 0:
						return wire.Op{Kind: wire.Add, Key: k}
					case 1:
						return wire.Op{Kind: wire.Remove, Key: k}
					}
					return wire.Op{Kind: wire.Contains, Key: k}
				})
			checkHistories(t, linearize.SetSpec{}, nClients*perClient, logged, observed)
		})
	}
}

func TestServerHistoryLinearizableQueue(t *testing.T) {
	const nClients, perClient = 4, 40
	logged, observed := runLoggedHistory(t,
		server.Config{Structure: server.StructQueue},
		nClients, perClient,
		func(cl, i int) wire.Op {
			if i%2 == 0 {
				return wire.Op{Kind: wire.Enqueue, Key: int64(cl*1000 + i)}
			}
			return wire.Op{Kind: wire.Dequeue}
		})
	checkHistories(t, linearize.QueueSpec{}, 0, logged, observed)
}

func TestServerHistoryLinearizableStack(t *testing.T) {
	const nClients, perClient = 3, 30
	logged, observed := runLoggedHistory(t,
		server.Config{Structure: server.StructStack},
		nClients, perClient,
		func(cl, i int) wire.Op {
			if i%2 == 0 {
				return wire.Op{Kind: wire.Push, Key: int64(cl*1000 + i)}
			}
			return wire.Op{Kind: wire.Pop}
		})
	checkHistories(t, linearize.StackSpec{}, 0, logged, observed)
}

// TestLinearizeCatchesCorruptedHistory guards the checker wiring: a
// history with a forged response must be rejected, proving the passes
// above are not vacuous — for the op log and the client-observed
// history alike.
func TestLinearizeCatchesCorruptedHistory(t *testing.T) {
	logged, observed := runLoggedHistory(t,
		server.Config{Structure: server.StructQueue},
		2, 20,
		func(cl, i int) wire.Op {
			if i%2 == 0 {
				return wire.Op{Kind: wire.Enqueue, Key: int64(cl*100 + i)}
			}
			return wire.Op{Kind: wire.Dequeue}
		})
	for name, ops := range map[string][]linearize.Op{"op log": logged, "client-observed": observed} {
		// Forge the first successful dequeue's output.
		forged := false
		for i := range ops {
			if ops[i].Action == linearize.ActDequeue && ops[i].OK {
				ops[i].Output += 9999
				forged = true
				break
			}
		}
		if !forged {
			t.Skipf("%s history had no successful dequeue to forge", name)
		}
		if linearize.Check(linearize.QueueSpec{}, ops) {
			t.Fatalf("checker accepted a forged %s history", name)
		}
	}
}

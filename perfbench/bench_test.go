package main

import (
	"bufio"
	"math/rand"
	"net"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"pimds/internal/wire"
)

// bruteQuantile expands every sample into one latency per op and takes
// the nearest-rank num/den quantile.
func bruteQuantile(s []latSample, num, den int64) int64 {
	var all []int64
	for _, x := range s {
		for i := int64(0); i < x.ops; i++ {
			all = append(all, x.ns)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	rank := (num*int64(len(all)) + den - 1) / den
	return all[rank-1]
}

func TestPercentileWeightsFramesByOps(t *testing.T) {
	// One slow frame carrying most ops must dominate the median, though
	// it is one sample of three.
	s := []latSample{{ns: 10, ops: 1}, {ns: 50, ops: 98}, {ns: 20, ops: 1}}
	if got := percentile(s, 1, 2); got != 50 {
		t.Fatalf("p50 = %d, want 50", got)
	}
	if got := percentile(s, 1, 100); got != 10 {
		t.Fatalf("p1 = %d, want 10", got)
	}
	if got := percentile(s, 99, 100); got != 50 {
		t.Fatalf("p99 = %d, want 50", got)
	}
	if got := percentile(nil, 1, 2); got != 0 {
		t.Fatalf("empty p50 = %d, want 0", got)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		s := make([]latSample, 1+rng.Intn(40))
		for i := range s {
			s[i] = latSample{ns: rng.Int63n(1000), ops: 1 + rng.Int63n(300)}
		}
		for _, q := range [][2]int64{{1, 2}, {99, 100}, {999, 1000}, {1, 1}} {
			want := bruteQuantile(s, q[0], q[1])
			if got := percentile(s, q[0], q[1]); got != want {
				t.Fatalf("trial %d q=%d/%d: got %d, want %d", trial, q[0], q[1], got, want)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Fatalf("even median = %v", got)
	}
}

func TestOwnedStaysInKeyspaceAndOwnsDisjointKeys(t *testing.T) {
	const space = 1 << 10
	for k := int64(0); k < space; k++ {
		for c := 0; c < conns; c++ {
			o := owned(k, c)
			if o < 0 || o >= space {
				t.Fatalf("owned(%d, %d) = %d outside [0, %d)", k, c, o, space)
			}
			if owner(o) != c {
				t.Fatalf("owned(%d, %d) = %d belongs to conn %d", k, c, o, owner(o))
			}
			if d := o - k; d <= -conns || d >= conns {
				t.Fatalf("owned(%d, %d) = %d moved the key by %d", k, c, o, d)
			}
		}
	}
}

// TestOwnershipKeepsSkew compares the share of ops on the hottest
// shard before and after the ownership mapping on the skewed workload.
func TestOwnershipKeepsSkew(t *testing.T) {
	w, err := lookupWorkload("write-durable")
	if err != nil {
		t.Fatal(err)
	}
	s, err := newOpStream(w, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := newOpStream(w, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200000
	upper := w.keySpace / shards
	var hot, rawHot int
	for i := 0; i < n; i++ {
		if s.next().Key < upper {
			hot++
		}
		if raw.gen.Next().Key < upper {
			rawHot++
		}
	}
	share, rawShare := float64(hot)/n, float64(rawHot)/n
	if share < 0.9 || share-rawShare > 0.001 || rawShare-share > 0.001 {
		t.Fatalf("hot-shard share %.4f after mapping, %.4f before", share, rawShare)
	}
}

func TestPreloadIsSeededAndHalfFull(t *testing.T) {
	w := workload{name: "t", keySpace: 1 << 12}
	a, b := preloadKeys(w, 5, 1), preloadKeys(w, 5, 1)
	if len(a) != len(b) {
		t.Fatal("same seed gave different preloads")
	}
	for i := range a {
		if a[i] != b[i] || owner(a[i]) != 1 {
			t.Fatalf("preload key %d: %d vs %d", i, a[i], b[i])
		}
	}
	if half := int(w.keySpace / conns / 2); len(a) < half*9/10 || len(a) > half*11/10 {
		t.Fatalf("%d preloaded keys, want about %d", len(a), half)
	}
	if c := preloadKeys(w, 6, 1); len(c) == len(a) && c[0] == a[0] && c[1] == a[1] {
		t.Fatal("different seeds gave the same preload")
	}
}

func TestCheckRejectsFlippedPointResult(t *testing.T) {
	sh := newShadow(64, 0)
	var f frameCheck
	f.reset(1, 3)
	for _, op := range []wire.Op{{Kind: wire.Add, Key: 4}, {Kind: wire.Contains, Key: 4}, {Kind: wire.Remove, Key: 6}} {
		f.add(sh, op, 64)
	}
	f.check(&wire.Result{ID: opID(1, 0), OK: true}, 0)
	f.check(&wire.Result{ID: opID(1, 1), OK: false}, 0) // flipped: 4 was just added
	f.check(&wire.Result{ID: opID(1, 2), OK: false}, 0)
	if f.mismatches != 1 || f.firstErr == nil {
		t.Fatalf("mismatches = %d, want 1", f.mismatches)
	}
	f.check(&wire.Result{ID: opID(1, 2), OK: false}, 0) // duplicate
	f.check(&wire.Result{ID: opID(2, 0), OK: true}, 0)  // another frame
	if f.mismatches != 3 {
		t.Fatalf("mismatches = %d after a duplicate and a stray id, want 3", f.mismatches)
	}
}

func TestCheckScanPages(t *testing.T) {
	sh := newShadow(64, 1)
	for _, k := range []int64{3, 5, 9} {
		sh.set(k, true)
	}
	var f frameCheck
	f.reset(1, 1)
	f.add(sh, wire.Op{Kind: wire.RangeScan, Key: 2, Hi: 10}, 64)
	e := &f.exp[0]
	want := f.keys[e.start:e.end]
	page := func(cursor int64, keys ...int64) error {
		return checkPage(&wire.Result{OK: true, Value: cursor, Values: keys}, e, want, 1)
	}
	// Even keys belong to the other connection and are not checked.
	if err := page(10, 2, 3, 4, 5, 8, 9); err != nil {
		t.Fatalf("good page rejected: %v", err)
	}
	if err := page(6, 3, 4, 5); err != nil {
		t.Fatalf("good page cut by its cursor rejected: %v", err)
	}
	for name, err := range map[string]error{
		"missing owned key": page(10, 3, 9),
		"missing last key":  page(10, 3, 4, 5),
		"extra owned key":   page(10, 3, 5, 7, 9),
		"unordered":         page(10, 5, 3, 9),
		"past the cursor":   page(6, 3, 5, 9),
		"cursor too far":    page(11, 3, 5, 9),
	} {
		if err == nil {
			t.Errorf("%s: page accepted", name)
		}
	}
}

// TestRoundTripCountsMissingResponses answers two of a frame's three
// ops and hangs up: the third must count as lost.
func TestRoundTripCountsMissingResponses(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	done := make(chan error, 1)
	go func() {
		defer srv.Close()
		payload, err := wire.ReadFrame(bufio.NewReader(srv), nil)
		if err != nil {
			done <- err
			return
		}
		ops, _, err := wire.DecodeRequestAny(payload, nil)
		if err != nil {
			done <- err
			return
		}
		var res []wire.Result
		for _, op := range ops[:2] {
			res = append(res, wire.Result{ID: op.ID, Status: wire.StatusOK, OK: true})
		}
		buf, _ := wire.AppendResponse(nil, res)
		_, err = srv.Write(buf)
		done <- err
	}()
	w := workload{name: "t", keySpace: 64, dist: "uniform", mix: "0/100/0"}
	c, err := newClient(w, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.nc, c.br = cli, bufio.NewReader(cli)
	c.keysFrame(wire.Add, []int64{0, 2, 4})
	if err := c.roundTrip(); err == nil {
		t.Fatal("round trip with a missing response succeeded")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if c.fc.lost != 1 || c.fc.mismatches != 0 {
		t.Fatalf("lost = %d, mismatches = %d; want 1 lost, 0 mismatches", c.fc.lost, c.fc.mismatches)
	}
}

// TestShadowAgreesWithServer runs the real closed loop briefly against
// a small in-memory and a small durable server: every result must
// match the shadows.
func TestShadowAgreesWithServer(t *testing.T) {
	for _, w := range []workload{
		{name: "mem", keySpace: 1 << 10, dist: "uniform", mix: "40/20/20,scan:20"},
		{name: "wal", keySpace: 1 << 10, dist: "zipf:1.2", mix: "50/25/25", snapshotEvery: 50 * time.Millisecond},
	} {
		t.Run(w.name, func(t *testing.T) {
			preload := preloads(w, 3)
			in, cs, _, err := setUp(w, 3, filepath.Join(t.TempDir(), "wal"), preload)
			if err != nil {
				t.Fatal(err)
			}
			_, err = drive(cs, 200*time.Millisecond)
			if terr := tearDown(in, cs); err == nil {
				err = terr
			}
			if err != nil {
				t.Fatal(err)
			}
			r := newReport(cs, 1)
			if !r.Correct || r.Failed != 0 {
				t.Fatalf("results disagree with the shadows: %s", r.why)
			}
		})
	}
}

// Command perfbench is the end-to-end and per-layer benchmark of the
// pimserve serve path. It starts a real server.Server in-process on a
// loopback listener and drives it with its own closed-loop client over
// internal/wire, checking every result against per-connection shadows.
//
//	perfbench -workload point-hot -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it measures the end-to-end metrics; with -trace 1 it
// runs an untraced and a traced window back to back, reads the
// server's registry and sampled spans, writes a Chrome trace, and
// replays the workload's op stream through seqskip, the WAL and the
// wire codec. The last line of standard output is one JSON object
// with the run's verdict and metrics. Any wrong result makes the exit
// code non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"pimds/internal/obs"
	"pimds/internal/prof"
)

func main() {
	name := flag.String("workload", "", "workload: point-hot, mixed-cold or write-durable")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "0 measures end-to-end metrics; 1 runs the traced per-layer run")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "work"), "directory for WAL files and Chrome traces")
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("-seconds must be at least 1")
	}
	if err == nil {
		err = os.MkdirAll(*workdir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	window := time.Duration(*seconds) * time.Second
	dir := filepath.Join(*workdir, fmt.Sprintf("%s-seed%d-pid%d", w.name, *seed, os.Getpid()))
	var r *report
	if *trace == 1 {
		r, err = runTraced(w, *seed, window, dir, *workdir)
	} else {
		r, err = runTimed(w, *seed, window, dir)
	}
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := r.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !r.Correct || r.Failed > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: wrong results:", r.why)
		os.Exit(1)
	}
}

// walDir is where set-up rep keeps its WAL; in-memory workloads have
// none.
func walDir(w workload, dir string, rep int) string {
	if w.snapshotEvery == 0 {
		return ""
	}
	return filepath.Join(dir, fmt.Sprintf("wal-%d", rep))
}

func preloads(w workload, seed int64) [][]int64 {
	p := make([][]int64, conns)
	for c := range p {
		p[c] = preloadKeys(w, seed, c)
	}
	return p
}

// runTimed is the untraced run: w.setupReps set-ups, a warm-up, and
// the measured window on the last set-up. The window is cut into
// one-second slices; each end-to-end metric is the median over the
// third of the slices, and setup_s the median over the third of the
// set-ups, in which the process got the most CPU time per wall-clock
// second. On a shared host the hypervisor takes the vCPUs away for
// seconds at a time; those seconds show the host, not the serve path.
// Every slice is still checked for correctness.
func runTimed(w workload, seed int64, d time.Duration, dir string) (*report, error) {
	preload := preloads(w, seed)
	var in *instance
	var cs []*client
	var setups []sample
	for rep := 0; rep < w.setupReps; rep++ {
		if in != nil {
			if err := tearDown(in, cs); err != nil {
				return nil, err
			}
		}
		// Start every set-up from a collected heap, so one set-up does
		// not pay for the last one's garbage.
		runtime.GC()
		var took time.Duration
		var err error
		cpu0 := cpuTime()
		if in, cs, took, err = setUp(w, seed, walDir(w, dir, rep), preload); err != nil {
			return nil, err
		}
		setups = append(setups, sample{cpuShare: (cpuTime() - cpu0).Seconds() / took.Seconds(), setup: took.Seconds()})
	}
	n := int(d / time.Second)
	slices := make([]sample, 0, n)
	var ops int64
	err := warmUp(cs, d)
	for i := 0; i < n && err == nil; i++ {
		var win window
		if win, err = measure(in, cs, d/time.Duration(n)); err != nil {
			break
		}
		var lat []latSample
		for _, c := range cs {
			lat = append(lat, c.lat...)
		}
		ops += win.ops
		k := float64(win.ops)
		slices = append(slices, sample{
			cpuShare: win.cpu.Seconds() / win.elapsed.Seconds(),
			tput:     k / win.elapsed.Seconds(),
			p50:      float64(percentile(lat, 1, 2)) / 1e3,
			p95:      float64(percentile(lat, 95, 100)) / 1e3,
			p99:      float64(percentile(lat, 99, 100)) / 1e3,
			cpu:      float64(win.cpu.Microseconds()) / k,
			allocs:   float64(win.allocs) / k,
		})
	}
	if terr := tearDown(in, cs); err == nil {
		err = terr
	}
	if err != nil {
		return nil, err
	}
	slices = busiestThird(slices)
	setups = busiestThird(setups)
	r := newReport(cs, ops)
	r.add("throughput_ops_s", medianOf(slices, func(s sample) float64 { return s.tput }), "ops/s")
	r.add("latency_p50_us", medianOf(slices, func(s sample) float64 { return s.p50 }), "us")
	r.add("latency_p95_us", medianOf(slices, func(s sample) float64 { return s.p95 }), "us")
	r.add("cpu_us_per_op", medianOf(slices, func(s sample) float64 { return s.cpu }), "us")
	r.add("allocs_per_op", medianOf(slices, func(s sample) float64 { return s.allocs }), "allocs")
	r.add("peak_rss_mb", peakRSSMB(), "MB")
	r.add("setup_s", medianOf(setups, func(s sample) float64 { return s.setup }), "s")
	// p99 is printed, not gated: its top 1% is the host's scheduling
	// tail, and it swings between runs by more than any bound allows.
	r.note("latency_p99_us", medianOf(slices, func(s sample) float64 { return s.p99 }), "us")
	r.note("latency.samples", float64(ops), "ops")
	r.note("error_frac", float64(r.Failed)/float64(r.Attempted), "frac")
	r.note("slices.kept", float64(len(slices)), "slices")
	r.note("slices.cpu_share_min_kept", slices[len(slices)-1].cpuShare, "cpus")
	return r, nil
}

// sample is one measured second of the window, or one set-up.
type sample struct {
	cpuShare                 float64 // process CPU seconds per wall-clock second
	tput, p50, p95, p99, cpu float64
	allocs                   float64
	setup                    float64
}

// busiestThird returns the third (rounded up) of xs with the highest
// CPU share, reordering xs.
func busiestThird(xs []sample) []sample {
	sort.Slice(xs, func(i, j int) bool { return xs[i].cpuShare > xs[j].cpuShare })
	return xs[:(len(xs)+2)/3]
}

func medianOf(xs []sample, f func(sample) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	return median(vs)
}

// runTraced is the per-layer run: one set-up, an untraced window and a
// traced window of d/2 each, then the layer replays.
func runTraced(w workload, seed int64, d time.Duration, dir, workdir string) (*report, error) {
	preload := preloads(w, seed)
	in, cs, _, err := setUp(w, seed, walDir(w, dir, 0), preload)
	if err != nil {
		return nil, err
	}
	err = warmUp(cs, d)
	var plain window
	if err == nil {
		plain, err = measure(in, cs, d/2)
	}
	var waits []float64
	var st clientStats
	for _, c := range cs {
		waits = append(waits, c.waits...)
		st.add(c.st)
	}
	var traced window
	if err == nil {
		for _, c := range cs {
			c.traced = true
		}
		traced, err = measure(in, cs, d/2)
	}
	if terr := tearDown(in, cs); err == nil {
		err = terr
	}
	if err != nil {
		return nil, err
	}
	chrome := filepath.Join(workdir, fmt.Sprintf("trace-%s.json", w.name))
	matched, err := writeChrome(chrome, cs, in)
	if err != nil {
		return nil, err
	}
	skip, err := replaySkip(w, seed, preload)
	if err != nil {
		return nil, err
	}
	walAppend, walSync, err := replayWAL(w, seed, filepath.Join(dir, "wal-replay"))
	if err != nil {
		return nil, err
	}
	wr, err := replayWire(w, seed)
	if err != nil {
		return nil, err
	}

	r := newReport(cs, plain.ops+traced.ops)
	a, b := plain.before, plain.after
	ops := float64(plain.ops)
	var batches, batchOps, hot, scanPasses, scans float64
	for i := 0; i < shards; i++ {
		h := histDelta(a, b, fmt.Sprintf("server/shard/%03d/batch_size", i))
		batches += float64(h.Count)
		batchOps += float64(h.Sum)
		if float64(h.Sum) > hot {
			hot = float64(h.Sum)
		}
		s := histDelta(a, b, fmt.Sprintf("server/shard/%03d/scan_batch", i))
		scanPasses += float64(s.Count)
		scans += float64(s.Sum)
	}
	r.add("server.batch_size_mean", ratio(batchOps, batches), "ops")
	r.add("server.resp_frames_per_req_frame", ratio(counterDelta(a, b, "server/frames/out"), counterDelta(a, b, "server/frames/in")), "frames")
	r.add("server.hot_shard_op_share", ratio(hot, batchOps), "frac")
	r.add("server.scan_batch_mean", ratio(scans, scanPasses), "scans")
	var sum float64
	for _, comp := range prof.ServerComponents() {
		h := histDelta(traced.before, traced.after, "server/trace/"+comp+"_ns")
		sum += h.Mean / 1e3
		r.add("server."+comp+".mean_us", h.Mean/1e3, "us")
		r.add("server."+comp+".p99_us", float64(h.P99)/1e3, "us")
	}
	e2e := histDelta(traced.before, traced.after, "server/trace/e2e_ns")
	r.add("server.e2e.mean_us", e2e.Mean/1e3, "us")
	r.note("server.components_sum.mean_us", sum, "us")
	r.note("server.sampled_ops", float64(e2e.Count), "ops")

	r.add("seqskip.steps_per_op", skip.stepsPerOp, "steps")
	r.add("seqskip.point_ns_per_op", skip.pointNSPerOp, "ns")
	r.add("seqskip.scan_ns_per_key", skip.scanNSPerKey, "ns")

	if w.snapshotEvery > 0 {
		// The server's WAL works only on the durable workload.
		fsyncs := counterDelta(a, b, "server/wal/fsyncs")
		lag := histDelta(a, b, "server/wal/lag_ns")
		r.add("wal.records_per_fsync", ratio(counterDelta(a, b, "server/wal/records"), fsyncs), "records")
		r.add("wal.fsyncs_per_s", fsyncs/plain.elapsed.Seconds(), "1/s")
		r.add("wal.bytes_per_op", counterDelta(a, b, "server/wal/bytes")/ops, "B")
		r.add("wal.lag.p50_us", float64(lag.P50)/1e3, "us")
		r.add("wal.lag.p99_us", float64(lag.P99)/1e3, "us")
	}
	r.add("wal.append_ns_per_record", walAppend, "ns")
	r.add("wal.sync_us", walSync, "us")

	r.add("wire.req_encode_ns_per_op", float64(st.encodeNS)/ops, "ns")
	r.add("wire.resp_decode_ns_per_op", float64(st.decodeNS)/ops, "ns")
	r.add("wire.req_bytes_per_op", float64(st.reqBytes)/ops, "B")
	r.add("wire.resp_bytes_per_op", float64(st.respBytes)/ops, "B")
	r.add("wire.replay.req_decode_ns_per_op", wr.reqDecodeNSPerOp, "ns")
	r.add("wire.replay.resp_encode_ns_per_op", wr.respEncodeNSPerOp, "ns")

	r.add("runtime.gc_per_mop", float64(plain.gcs)/(ops/1e6), "gc/Mop")
	r.add("runtime.gc_pause.p99_us", plain.gcPauseP99US, "us")

	r.add("client.busy_frac", float64(st.busyNS)/(float64(conns)*float64(plain.elapsed)), "frac")
	r.add("client.wait.p50_us", median(waits), "us")
	r.add("trace.overhead_frac", 1-(float64(traced.ops)/traced.elapsed.Seconds())/(ops/plain.elapsed.Seconds()), "frac")
	r.note("trace.frames_on_both_sides", float64(matched), "frames")
	r.notes = append(r.notes, "chrome trace: "+chrome)
	return r, nil
}

// warmUp collects garbage left by set-up, then runs the loop unmeasured
// for a tenth of the window so caches and buffers reach steady state.
func warmUp(cs []*client, d time.Duration) error {
	runtime.GC()
	for _, c := range cs {
		c.resetWindow(false)
	}
	_, err := drive(cs, d/10)
	return err
}

// window is what one measured window observed.
type window struct {
	elapsed       time.Duration
	ops           int64
	cpu           time.Duration
	allocs        uint64
	gcs           uint32
	gcPauseP99US  float64
	before, after *obs.Snapshot
}

func measure(in *instance, cs []*client, d time.Duration) (window, error) {
	for _, c := range cs {
		c.resetWindow(true)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	w := window{before: in.reg.Snapshot()}
	elapsed, err := drive(cs, d)
	w.after = in.reg.Snapshot()
	w.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	w.elapsed = elapsed
	for _, c := range cs {
		w.ops += c.st.ops
	}
	w.allocs = m1.Mallocs - m0.Mallocs
	w.gcs = m1.NumGC - m0.NumGC
	var pauses []latSample
	for i := m0.NumGC + 1; i <= m1.NumGC && m1.NumGC-i < uint32(len(m1.PauseNs)); i++ {
		pauses = append(pauses, latSample{ns: int64(m1.PauseNs[(i+255)%256]), ops: 1})
	}
	w.gcPauseP99US = float64(percentile(pauses, 99, 100)) / 1e3
	if err == nil && w.ops == 0 {
		err = fmt.Errorf("no frame completed in the window")
	}
	return w, err
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func histDelta(a, b *obs.Snapshot, name string) obs.HistogramSnapshot {
	return b.Histograms[name].Sub(a.Histograms[name])
}

func counterDelta(a, b *obs.Snapshot, name string) float64 {
	return float64(b.Counters[name] - a.Counters[name])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metricValue is one metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's verdict and metrics. Metrics go into the result
// line; notes are printed for people only.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	order []string
	notes []string
	why   string
}

// newReport starts a report over attempted ops: a run is correct when
// no result mismatched its shadow and none was lost; failed counts
// refused ops plus lost ones.
func newReport(cs []*client, attempted int64) *report {
	r := &report{Correct: true, Attempted: attempted, Metrics: map[string]metricValue{}}
	for _, c := range cs {
		r.Failed += c.fc.nonOK + c.fc.lost
		if c.fc.mismatches > 0 || c.fc.lost > 0 {
			r.Correct = false
			if r.why == "" {
				r.why = fmt.Sprintf("conn %d: %d mismatches, %d lost; first: %v", c.id, c.fc.mismatches, c.fc.lost, c.fc.firstErr)
			}
		}
	}
	if r.Failed > 0 && r.why == "" {
		r.why = fmt.Sprintf("%d ops refused", r.Failed)
	}
	return r
}

func (r *report) add(name string, v float64, unit string) {
	r.Metrics[name] = metricValue{v, unit}
	r.order = append(r.order, name)
}

func (r *report) note(name string, v float64, unit string) {
	r.notes = append(r.notes, fmt.Sprintf("%-40s %14.4f %s", name, v, unit))
}

// write prints every metric and note by name and unit, then the JSON
// result line last.
func (r *report) write(out io.Writer) error {
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(out, "%-40s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(out, n)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

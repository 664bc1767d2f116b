package harness

import (
	"math/rand"

	"pimds/internal/cds/seqlist"
	"pimds/internal/cds/seqskip"
	"pimds/internal/core/pimlist"
	"pimds/internal/core/pimqueue"
	"pimds/internal/core/pimskip"
	"pimds/internal/model"
	"pimds/internal/obs"
	"pimds/internal/sim"
)

// SimOpts configures one virtual-time measurement.
type SimOpts struct {
	Params  model.Params
	Warmup  sim.Time
	Measure sim.Time

	// Seed perturbs every workload generator in the run. Identical
	// (Seed, opts) always produce bit-identical virtual-time results —
	// the simulator is a deterministic discrete-event machine and the
	// generators are seeded PRNGs. Seed 0 reproduces the legacy
	// (pre-Seed) streams exactly.
	Seed int64
}

// seed derives a generator seed from a call-site-specific base, folding
// in the run's Seed. With Seed == 0 it returns base unchanged, keeping
// historical outputs stable.
func (o SimOpts) seed(base int64) int64 {
	return base + o.Seed*1_000_003
}

// DefaultSimOpts returns the standard measurement windows at the
// paper's parameters.
func DefaultSimOpts() SimOpts {
	return SimOpts{
		Params:  model.DefaultParams(),
		Warmup:  500 * sim.Microsecond,
		Measure: 5 * sim.Millisecond,
	}
}

// quickened shrinks the windows for -quick runs.
func (o SimOpts) quickened() SimOpts {
	o.Warmup /= 5
	o.Measure /= 5
	return o
}

// RunResult is the outcome of one virtual-time measurement: completed
// operations in the window, throughput, and (for variants driven by
// message clients) the per-operation inject→reply latency histogram.
// Latency is nil for the loop-based CPU baselines, which complete
// operations without request/response traffic.
type RunResult struct {
	Completed uint64
	Ops       float64
	Latency   *obs.Histogram
}

// Percentiles renders the latency histogram's p50/p95/p99 as
// virtual-time strings, or em-dashes when no latency was recorded.
func (r RunResult) Percentiles() (p50, p95, p99 string) {
	if r.Latency == nil || r.Latency.N() == 0 {
		return "—", "—", "—"
	}
	a, b, c := r.Latency.Percentiles()
	return sim.Time(a).String(), sim.Time(b).String(), sim.Time(c).String()
}

// SimList measures one Table 1 row in virtual time: variant selects
// the algorithm. p CPU threads, uniform keys over keySpace, balanced
// add/remove, initial occupancy 1/2.
func SimList(o SimOpts, variant model.ListAlgorithm, p int, keySpace int64) RunResult {
	cfg := sim.ConfigFromParams(o.Params)
	e := sim.NewEngine(cfg)
	keys := PreloadKeys(keySpace)
	dist := Uniform{N: keySpace}

	switch variant {
	case model.PIMListNoCombining, model.PIMListCombining:
		l := pimlist.New(e, variant == model.PIMListCombining)
		l.Preload(keys)
		agg := &obs.Histogram{}
		var clients []*sim.Client
		for i := 0; i < p; i++ {
			g := NewGenerator(o.seed(int64(1000+i)), dist, Balanced())
			cl := l.NewClient(e, g.ListStream())
			cl.Latency = agg // one histogram across clients
			clients = append(clients, cl)
		}
		m := &sim.Meter{Engine: e, Clients: clients}
		completed, ops := m.Run(o.Warmup, o.Measure)
		return RunResult{Completed: completed, Ops: ops, Latency: agg}

	case model.FineGrainedLockList:
		gens := make([]*Generator, p)
		for i := range gens {
			gens[i] = NewGenerator(o.seed(int64(2000+i)), dist, Balanced())
		}
		s := pimlist.NewSimFineGrained(e, p, func(cpu int, _ uint64) (op listOp) {
			return gens[cpu].Next().ToList()
		})
		s.Preload(keys)
		completed, ops := sim.Measure(e, func() {}, s.Ops(), o.Warmup, o.Measure)
		return RunResult{Completed: completed, Ops: ops}

	case model.FCListNoCombining, model.FCListCombining:
		g := NewGenerator(o.seed(3000), dist, Balanced())
		s := pimlist.NewSimFCList(e, p, variant == model.FCListCombining, func(uint64) listOp {
			return g.Next().ToList()
		})
		s.Preload(keys)
		completed, ops := sim.Measure(e, func() {}, s.Ops(), o.Warmup, o.Measure)
		return RunResult{Completed: completed, Ops: ops}
	}
	return RunResult{}
}

// listOp aliases the sequential-list op type to keep signatures short.
type listOp = seqlist.Op

// SimSkipPIM measures the PIM skip-list with k partitions; it returns
// the measurement and the measured average traversal length β (vault
// reads per operation), which feeds the model cross-check.
func SimSkipPIM(o SimOpts, k, p int, keySpace int64) (res RunResult, beta float64) {
	e := sim.NewEngine(sim.ConfigFromParams(o.Params))
	s := pimskip.New(e, keySpace, k, 23)
	s.Preload(PreloadKeys(keySpace))
	agg := &obs.Histogram{}
	for i := 0; i < p; i++ {
		g := NewGenerator(o.seed(int64(90+i)), Uniform{N: keySpace}, Balanced())
		cl := s.NewClient(g.SkipStream())
		cl.Latency = agg
		cl.Start()
	}
	snapshot := func() uint64 {
		var total uint64
		for _, part := range s.Partitions() {
			total += part.Core().Stats.Ops
		}
		return total
	}
	completed, ops := sim.Measure(e, func() {}, snapshot, o.Warmup, o.Measure)
	res = RunResult{Completed: completed, Ops: ops, Latency: agg}
	var reads, opsN uint64
	for _, part := range s.Partitions() {
		reads += part.Core().Vault().Reads
		opsN += part.Core().Stats.Ops
	}
	if opsN == 0 {
		return res, 0
	}
	return res, float64(reads) / float64(opsN)
}

// SimSkipLockFree measures the simulated lock-free skip-list baseline.
func SimSkipLockFree(o SimOpts, p int, keySpace int64, chargeCAS bool) RunResult {
	e := sim.NewEngine(sim.ConfigFromParams(o.Params))
	gens := make([]*Generator, p)
	for i := range gens {
		gens[i] = NewGenerator(o.seed(int64(400+i)), Uniform{N: keySpace}, Balanced())
	}
	s := pimskip.NewSimLockFree(e, p, chargeCAS, func(cpu int, _ uint64) skipOp {
		return gens[cpu].Next().ToSkip()
	})
	s.Preload(PreloadKeys(keySpace))
	completed, ops := sim.Measure(e, func() {}, s.Ops(), o.Warmup, o.Measure)
	return RunResult{Completed: completed, Ops: ops}
}

// skipOp aliases the sequential-skip-list op type.
type skipOp = seqskip.Op

// SimSkipFC measures the simulated partitioned flat-combining
// skip-list baseline.
func SimSkipFC(o SimOpts, k, p int, keySpace int64) RunResult {
	e := sim.NewEngine(sim.ConfigFromParams(o.Params))
	gens := make([]*Generator, k)
	for i := range gens {
		lo := int64(i) * keySpace / int64(k)
		hi := int64(i+1) * keySpace / int64(k)
		gens[i] = NewGenerator(o.seed(int64(300+i)), rangeDist{lo: lo, hi: hi}, Balanced())
	}
	s := pimskip.NewSimFCSkip(e, keySpace, k, p, func(part int, _ uint64) skipOp {
		return gens[part].Next().ToSkip()
	})
	for i := 0; i < k; i++ {
		lo := int64(i) * keySpace / int64(k)
		hi := int64(i+1) * keySpace / int64(k)
		var keys []int64
		for j := lo; j < hi; j += 2 {
			keys = append(keys, j)
		}
		s.PreloadPartition(i, keys)
	}
	completed, ops := sim.Measure(e, func() {}, s.Ops(), o.Warmup, o.Measure)
	return RunResult{Completed: completed, Ops: ops}
}

// rangeDist draws uniformly from [lo, hi).
type rangeDist struct{ lo, hi int64 }

// Next returns a key in [lo, hi).
func (r rangeDist) Next(rng *rand.Rand) int64 {
	return r.lo + rng.Int63n(r.hi-r.lo)
}

// Space returns the exclusive bound.
func (r rangeDist) Space() int64 { return r.hi }

// Name describes the distribution.
func (r rangeDist) Name() string { return "range" }

// QueueRegime selects the PIM-queue measurement scenario.
type QueueRegime struct {
	Cores          int
	Threshold      int
	Pipelining     bool
	BlockingNotify bool
	Enqueuers      int
	Dequeuers      int
	PrefillLong    bool // prefill ~1M values and separate the two ends
}

// SimPIMQueue measures the PIM queue under the given regime.
func SimPIMQueue(o SimOpts, r QueueRegime) RunResult {
	e := sim.NewEngine(sim.ConfigFromParams(o.Params))
	q := pimqueue.New(e, r.Cores, r.Threshold)
	q.Pipelining = r.Pipelining
	q.BlockingNotify = r.BlockingNotify
	if r.PrefillLong {
		vals := make([]int64, 1<<20)
		for i := range vals {
			vals[i] = int64(i)
		}
		q.Preload(vals)
	}
	agg := &obs.Histogram{}
	var cpus []*sim.CPU
	var clients []*pimqueue.Client
	for i := 0; i < r.Enqueuers; i++ {
		cl := q.NewClient(pimqueue.Enqueuer)
		cl.Latency = agg
		clients = append(clients, cl)
		cpus = append(cpus, cl.CPU())
	}
	for i := 0; i < r.Dequeuers; i++ {
		cl := q.NewClient(pimqueue.Dequeuer)
		cl.Latency = agg
		clients = append(clients, cl)
		cpus = append(cpus, cl.CPU())
	}
	start := func() {
		for _, cl := range clients {
			cl.Start()
		}
	}
	completed, ops := sim.Measure(e, start, sim.OpsOfCPUs(cpus), o.Warmup, o.Measure)
	return RunResult{Completed: completed, Ops: ops, Latency: agg}
}

// SimQueueFAA measures the simulated F&A queue baseline (per side:
// pass the number of threads on one side).
func SimQueueFAA(o SimOpts, p int, chargeMemory bool) RunResult {
	e := sim.NewEngine(sim.ConfigFromParams(o.Params))
	s := pimqueue.NewSimFAAQueue(e, p, chargeMemory)
	completed, ops := sim.Measure(e, func() {}, s.Ops(), o.Warmup, o.Measure)
	return RunResult{Completed: completed, Ops: ops}
}

// SimQueueFC measures the simulated flat-combining queue baseline
// (both sides; divide Ops by 2 for per-side numbers).
func SimQueueFC(o SimOpts, p int, chargeMemory bool) RunResult {
	e := sim.NewEngine(sim.ConfigFromParams(o.Params))
	s := pimqueue.NewSimFCQueue(e, p, chargeMemory)
	completed, ops := sim.Measure(e, func() {}, s.Ops(), o.Warmup, o.Measure)
	return RunResult{Completed: completed, Ops: ops}
}

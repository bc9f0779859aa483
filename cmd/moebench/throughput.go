package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"moe"
	"moe/internal/experiments"
	"moe/internal/features"
)

// The decision-throughput study: the same healthy steady-state observation
// stream served three ways — one Decide call per observation, DecideBatch
// at batch 64, and batch 64 against a sharded runtime from concurrent
// goroutines — reported as decisions/second. This is the committed evidence
// (BENCH_PR6.json) behind the batch fast path's headline: batching amortizes
// the lock, the snapshot republish and the ladder proofs without changing a
// single decision.

const (
	throughputMaxThreads = 32
	throughputBatchSize  = 64
	throughputShards     = 4

	// The timing discipline: every measurement is a short slice (~sliceNs)
	// and the modes take slices round-robin, so within any interference
	// phase of the host — which lasts seconds to minutes — every mode is
	// sampled many times. The per-mode minimum over all rounds is then a
	// PAIRED statistic: the minima come from the same quiet windows, which
	// keeps the speedup ratios honest even when absolute numbers wander.
	// (One long benchmark per mode, by contrast, can land different modes
	// in different phases and report a ratio no single moment exhibited.)
	sliceNs     = 4e6
	sliceRounds = 600
	// allocOps is the op count the allocation statistics are averaged over
	// (runtime.MemStats deltas; the counters are monotonic, so GC timing
	// cannot skew them). It doubles as the warm-up before timing.
	allocOps = 512
)

// throughputObservation mirrors the differential suite's steady golden
// stream: clean features, constant availability, monotone clock.
func throughputObservation(i int) moe.Observation {
	var f moe.Features
	for j := range f {
		f[j] = 0.15*float64(j+1) + 0.02*float64((i*7+j*3)%11)
	}
	f[features.Processors] = throughputMaxThreads
	return moe.Observation{
		Time:           0.25 * float64(i),
		Features:       f,
		RegionStart:    i%4 == 0,
		Rate:           100,
		AvailableProcs: throughputMaxThreads,
	}
}

// throughputStream builds one reusable batch of steady observations.
func throughputStream(n int) []moe.Observation {
	obs := make([]moe.Observation, n)
	for i := range obs {
		obs[i] = throughputObservation(i)
	}
	return obs
}

// retimeStream rewrites the batch's timestamps to continue the monotone
// clock, so the same slice can be replayed forever without regressing time
// (a regressed timestamp is a repair, and repairs demote the fast path).
func retimeStream(obs []moe.Observation, step *int) {
	for j := range obs {
		obs[j].Time = 0.25 * float64(*step)
		*step++
	}
}

func newThroughputRuntime() (*moe.Runtime, error) {
	m, err := moe.NewMixture(moe.CanonicalExperts())
	if err != nil {
		return nil, err
	}
	return moe.NewRuntime(m, throughputMaxThreads)
}

// throughputMeasurement is one serving mode's result.
type throughputMeasurement struct {
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	NsPerDecision   float64 `json:"ns_per_decision"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
	// FastFraction is the share of decisions served by the healthy-regime
	// fast path. Single-shot Decide goes through the same dispatcher as a
	// batch of one, so every mode reports it.
	FastFraction float64 `json:"fast_fraction"`
}

type throughputReport struct {
	Description string `json:"description"`
	CPUs        int    `json:"cpus"`
	BatchSize   int    `json:"batch_size"`
	Shards      int    `json:"shards"`
	// SingleShot is one Runtime.Decide call per observation.
	SingleShot throughputMeasurement `json:"single_shot"`
	// Batched is DecideBatchInto at BatchSize on one runtime.
	Batched throughputMeasurement `json:"batched"`
	// ShardedConcurrent is DecideBatchInto at BatchSize against a sharded
	// runtime from GOMAXPROCS goroutines.
	ShardedConcurrent     throughputMeasurement `json:"sharded_concurrent"`
	SpeedupBatchVsSingle  float64               `json:"speedup_batch_vs_single"`
	SpeedupShardsVsSingle float64               `json:"speedup_sharded_vs_single"`
	Notes                 []string              `json:"notes"`
}

// throughputProbe is one serving mode under measurement: an op that serves n
// batches of throughputBatchSize decisions, and the accessor the
// fast-fraction statistic is read from afterwards.
type throughputProbe struct {
	op       func(n int)
	fastFrac func() float64

	iters       int // ops per timing slice, calibrated to ~sliceNs
	bestNs      float64
	hasResult   bool
	allocsPerOp int64
	bytesPerOp  int64
}

// prepare measures the probe's allocation profile over allocOps ops (warming
// every path in the process) and calibrates the slice op count.
func (p *throughputProbe) prepare() {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.op(allocOps)
	runtime.ReadMemStats(&after)
	p.allocsPerOp = int64(after.Mallocs-before.Mallocs) / allocOps
	p.bytesPerOp = int64(after.TotalAlloc-before.TotalAlloc) / allocOps

	p.iters = 1
	for {
		start := time.Now()
		p.op(p.iters)
		if el := time.Since(start).Nanoseconds(); float64(el) >= sliceNs || p.iters >= 1<<20 {
			return
		}
		p.iters *= 2
	}
}

// timeSlice runs one calibrated slice and keeps the fastest per-op time seen
// so far. Called round-robin across the modes; see the sliceNs comment for
// why the interleaving is the whole point.
func (p *throughputProbe) timeSlice() {
	start := time.Now()
	p.op(p.iters)
	ns := float64(time.Since(start).Nanoseconds()) / float64(p.iters)
	if !p.hasResult || ns < p.bestNs {
		p.bestNs = ns
		p.hasResult = true
	}
}

func (p *throughputProbe) measurement() throughputMeasurement {
	ns := p.bestNs / throughputBatchSize
	return throughputMeasurement{
		DecisionsPerSec: 1e9 / ns,
		NsPerDecision:   ns,
		AllocsPerOp:     p.allocsPerOp,
		BytesPerOp:      p.bytesPerOp,
		FastFraction:    p.fastFrac(),
	}
}

// singleShotProbe serves 64 decisions per op through one Decide call each.
func singleShotProbe() (*throughputProbe, error) {
	rt, err := newThroughputRuntime()
	if err != nil {
		return nil, err
	}
	obs := throughputStream(throughputBatchSize)
	step := 0
	return &throughputProbe{
		op: func(n int) {
			for i := 0; i < n; i++ {
				retimeStream(obs, &step)
				for j := range obs {
					rt.Decide(obs[j])
				}
			}
		},
		fastFrac: func() float64 { return fastFraction(rt) },
	}, nil
}

// batchedProbe serves 64 decisions per op through one DecideBatchInto call.
func batchedProbe() (*throughputProbe, error) {
	rt, err := newThroughputRuntime()
	if err != nil {
		return nil, err
	}
	obs := throughputStream(throughputBatchSize)
	dst := make([]int, 0, throughputBatchSize)
	step := 0
	return &throughputProbe{
		op: func(n int) {
			for i := 0; i < n; i++ {
				retimeStream(obs, &step)
				dst = rt.DecideBatchInto(dst[:0], obs)
			}
		},
		fastFrac: func() float64 { return fastFraction(rt) },
	}, nil
}

// fastFraction is the share of rt's decisions the fast path served.
func fastFraction(rt *moe.Runtime) float64 {
	if d := rt.Decisions(); d > 0 {
		return float64(rt.BatchStats().FastDecisions) / float64(d)
	}
	return 0
}

// shardedProbe serves 64 decisions per op against a sharded runtime from
// GOMAXPROCS concurrent goroutines (one worker per CPU, stable shard keys).
func shardedProbe() (*throughputProbe, error) {
	sharded, err := moe.NewShardedRuntime(throughputShards, throughputMaxThreads, func(int) (moe.Policy, error) {
		return moe.NewMixture(moe.CanonicalExperts())
	})
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	type shardWorker struct {
		key uint64
		obs []moe.Observation
		dst []int
	}
	ws := make([]*shardWorker, workers)
	for i := range ws {
		ws[i] = &shardWorker{
			key: uint64(i),
			obs: throughputStream(throughputBatchSize),
			dst: make([]int, 0, throughputBatchSize),
		}
	}
	// Workers draw timestamp blocks from one shared monotone counter: each
	// shard then sees a subsequence of an increasing sequence, so its clock
	// never regresses across rounds (a regressed timestamp is a repair, and
	// repairs demote the fast path).
	var nextStep atomic.Int64
	return &throughputProbe{
		op: func(n int) {
			var wg sync.WaitGroup
			for _, w := range ws {
				wg.Add(1)
				go func(w *shardWorker) {
					defer wg.Done()
					for i := 0; i < n; i += workers {
						base := nextStep.Add(throughputBatchSize) - throughputBatchSize
						for j := range w.obs {
							w.obs[j].Time = 0.25 * float64(base+int64(j))
						}
						w.dst = sharded.DecideBatchInto(w.key, w.dst[:0], w.obs)
					}
				}(w)
			}
			wg.Wait()
		},
		fastFrac: func() float64 {
			if d := sharded.Decisions(); d > 0 {
				return float64(sharded.BatchStats().FastDecisions) / float64(d)
			}
			return 0
		},
	}, nil
}

func runThroughput() (*throughputReport, error) {
	rep := &throughputReport{
		Description: "healthy steady-state decision stream on the canonical 4-expert mixture: decisions/sec single-shot Decide vs DecideBatch(64) vs sharded DecideBatch(64) from concurrent goroutines",
		CPUs:        runtime.GOMAXPROCS(0),
		BatchSize:   throughputBatchSize,
		Shards:      throughputShards,
	}
	single, err := singleShotProbe()
	if err != nil {
		return nil, err
	}
	batched, err := batchedProbe()
	if err != nil {
		return nil, err
	}
	sharded, err := shardedProbe()
	if err != nil {
		return nil, err
	}
	probes := []*throughputProbe{single, batched, sharded}
	for _, p := range probes {
		p.prepare()
	}
	for r := 0; r < sliceRounds; r++ {
		for _, p := range probes {
			p.timeSlice()
		}
	}
	rep.SingleShot = single.measurement()
	rep.Batched = batched.measurement()
	rep.ShardedConcurrent = sharded.measurement()
	rep.SpeedupBatchVsSingle = rep.Batched.DecisionsPerSec / rep.SingleShot.DecisionsPerSec
	rep.SpeedupShardsVsSingle = rep.ShardedConcurrent.DecisionsPerSec / rep.SingleShot.DecisionsPerSec
	rep.Notes = append(rep.Notes,
		"one op serves 64 decisions in every mode, so per-op times are directly comparable",
		"modes are timed in interleaved millisecond slices and reported as the per-mode minimum, so the speedup ratios pair minima from the same interference windows",
		"every mode runs the healthy-regime fast path (fast_fraction ~1); single-shot Decide is the degenerate batch and pays the lock, flush and republish once per observation instead of once per batch",
	)
	if rep.CPUs < 2 {
		rep.Notes = append(rep.Notes,
			"measured on a single-CPU host: sharded goroutines serialize, so parallel scaling is not observable here — the sharded row demonstrates contention overhead stays small; on multi-core hosts throughput scales with shards because each shard owns an independent lock and read-snapshot set")
	}
	return rep, nil
}

// throughputTable renders the report as a standard experiment table for
// `-experiment throughput`.
func throughputTable(rep *throughputReport) *experiments.Table {
	t := &experiments.Table{
		Title:   "Decision throughput — single-shot vs batched vs sharded",
		Columns: []string{"decisions/sec", "ns/decision", "fast fraction", "speedup vs single"},
		Notes:   rep.Notes,
	}
	t.AddRow("single-shot Decide", rep.SingleShot.DecisionsPerSec, rep.SingleShot.NsPerDecision, rep.SingleShot.FastFraction, 1)
	t.AddRow(fmt.Sprintf("DecideBatch(%d)", rep.BatchSize), rep.Batched.DecisionsPerSec, rep.Batched.NsPerDecision, rep.Batched.FastFraction, rep.SpeedupBatchVsSingle)
	t.AddRow(fmt.Sprintf("sharded(%d) batch", rep.Shards), rep.ShardedConcurrent.DecisionsPerSec, rep.ShardedConcurrent.NsPerDecision, rep.ShardedConcurrent.FastFraction, rep.SpeedupShardsVsSingle)
	return t
}

// writeThroughputJSON runs the study and writes the committed artifact
// (BENCH_PR6.json).
func writeThroughputJSON(path string) error {
	rep, err := runThroughput()
	if err != nil {
		return err
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "moebench: throughput single %.0f/s, batch %.0f/s (%.2fx), sharded %.0f/s (%.2fx), wrote %s\n",
		rep.SingleShot.DecisionsPerSec,
		rep.Batched.DecisionsPerSec, rep.SpeedupBatchVsSingle,
		rep.ShardedConcurrent.DecisionsPerSec, rep.SpeedupShardsVsSingle, path)
	return nil
}

package moe

import (
	"math"
	"time"

	"moe/internal/checkpoint"
	"moe/internal/features"
	"moe/internal/sim"
	"moe/internal/stats"
	"moe/internal/telemetry"
)

// Batched deciding. DecideBatch is semantically one Decide per observation,
// in order — byte-identical decisions, mixture statistics, health
// transitions, journal contents and telemetry counters, pinned by the
// differential harness in runtime_batch_test.go — with the writer lock
// taken once per batch, the read shards republished once per batch, and
// each observation dispatched by regime:
//
//   - Healthy regime (the steady state): the wrapped policy is the mixture
//     itself, no sink is attached, no checkpoint error is latched, and the
//     mixture's pure FastPlan proves that no rung of the degradation ladder
//     can fire on this observation. The decision is then served by the
//     precompiled fast path — memoized gating, scratch buffers, deferred
//     histogram counts — at 0 allocs/op.
//   - Anything else — dirty features, a repaired timestamp, suspect or
//     storming sensors, quarantine or probation live, detail capture on,
//     a wrapped (e.g. chaos-injected) policy, checkpointing degraded —
//     demotes that observation to the full Decide ladder, unmodified,
//     because the failed plan mutated nothing.
//
// The runtime-level gate mirrors decideLocked's sanitize/rate/availability/
// clock arithmetic exactly; the one deliberate tightening is that a
// timestamp the runtime would have to repair (non-finite or regressed)
// demotes instead of being silently clamped on the fast path — repair is
// the full ladder's business. Demotion never changes a decision, only which
// path serves it.
//
// Single-shot Decide is the degenerate batch: it dispatches through
// decideBatchOneLocked too, then flushes and republishes, without counting
// a batch or emitting a batch record. FastDecisions and FullDecisions
// therefore count every decision by the path that served it, single-shot
// included; Batches counts DecideBatch calls only.

// BatchStats reports the regime dispatcher's lifetime outcomes. Shard-backed
// and lock-free, like Decisions.
type BatchStats struct {
	// Batches counts DecideBatch calls served; single-shot Decide calls
	// are not batches and do not count.
	Batches int
	// FastDecisions counts decisions served by the healthy-regime fast
	// path, whether they arrived through Decide or DecideBatch.
	FastDecisions int
	// FullDecisions counts decisions routed through the full ladder,
	// whether they arrived through Decide or DecideBatch.
	FullDecisions int
}

// BatchStats returns the dispatcher counters published by the last
// completed Decide or DecideBatch call.
func (r *Runtime) BatchStats() BatchStats {
	r.counters.mu.RLock()
	defer r.counters.mu.RUnlock()
	return BatchStats{
		Batches:       r.counters.batches,
		FastDecisions: r.counters.batchFast,
		FullDecisions: r.counters.batchFull,
	}
}

// DecideBatch decides every observation in order and returns the thread
// counts. Equivalent to calling Decide per observation; see the package
// notes above for what is amortized.
func (r *Runtime) DecideBatch(obs []Observation) []int {
	return r.DecideBatchInto(make([]int, 0, len(obs)), obs)
}

// DecideBatchInto is DecideBatch appending into dst (which may be nil),
// letting steady-state callers reuse one result buffer across batches and
// keep the whole call allocation-free.
func (r *Runtime) DecideBatchInto(dst []int, obs []Observation) []int {
	if len(obs) == 0 {
		return dst
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var start time.Duration
	if r.batchSink != nil {
		start = time.Since(monoBase)
	}
	fastBefore, fullBefore := r.batchFast, r.batchFull
	for i := range obs {
		dst = append(dst, r.decideBatchOneLocked(&obs[i]))
	}
	r.flushBatchLocked()
	r.batches++
	if r.batchSink != nil {
		r.batchRec = telemetry.BatchRecord{
			Size:     len(obs),
			FastPath: r.batchFast - fastBefore,
			FullPath: r.batchFull - fullBefore,
			Nanos:    (time.Since(monoBase) - start).Nanoseconds(),
		}
		r.batchSink.RecordBatch(&r.batchRec)
	}
	r.publishLocked()
	return dst
}

// decideBatchOneLocked dispatches one observation by regime: the single
// dispatcher behind both Decide and DecideBatch.
func (r *Runtime) decideBatchOneLocked(o *Observation) int {
	if r.sink == nil && r.mix != nil && r.ckptErr == nil {
		if n, ok := r.tryFastLocked(o); ok {
			r.batchFast++
			return n
		}
	}
	r.batchFull++
	return r.decideFullLocked(*o)
}

// tryFastLocked attempts o on the healthy-regime fast path: the runtime
// gate replays decideLocked's input arithmetic pure, the mixture's FastPlan
// proves the ladder cold, and only then is anything — journal, runtime
// counters, mixture state — committed. A false return leaves the runtime
// and policy exactly as they were.
func (r *Runtime) tryFastLocked(o *Observation) (int, bool) {
	// Feature cleanliness is FastPlan's first proof obligation; the runtime
	// gate only needs to vet the inputs the mixture never sees.
	tm := o.Time
	if math.IsNaN(tm) || math.IsInf(tm, 0) || tm < r.clock {
		// A timestamp the runtime would have to repair is a distrusted
		// input; repairs belong to the full ladder.
		return 0, false
	}
	rate := o.Rate
	if math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0 {
		rate = 0
	}
	avail := o.AvailableProcs
	if avail <= 0 {
		avail = int(o.Features[features.Processors])
	}
	if avail <= 0 {
		avail = r.lastAvail
	}
	if avail <= 0 {
		avail = r.maxThreads
	}
	if avail > r.maxThreads {
		avail = r.maxThreads
	}
	d := sim.Decision{
		Time:           tm,
		Features:       o.Features,
		Rate:           rate,
		CurrentThreads: r.lastN,
		MaxThreads:     r.maxThreads,
		AvailableProcs: avail,
		RegionStart:    o.RegionStart,
		RegionIndex:    r.decisions,
	}
	if !r.mix.FastPlan(&d) {
		return 0, false
	}
	// The plan holds; the decision will be served. Journal the raw
	// observation first (write-ahead, exactly as Decide orders it — the
	// plan was pure, so nothing observable happened before this append).
	// An append failure latches, and the decision is still served from
	// memory, as on the full path.
	if r.store != nil {
		if err := r.store.Append(checkpoint.Observation{
			Time:           o.Time,
			Features:       o.Features,
			Rate:           o.Rate,
			RegionStart:    o.RegionStart,
			AvailableProcs: o.AvailableProcs,
		}); err != nil {
			r.ckptErr = err
		}
	}
	n := r.mix.FastCommit(&d)
	n = stats.ClampInt(n, 1, r.maxThreads)
	r.lastAvail = avail
	r.clock = tm
	r.lastN = n
	r.decisions++
	r.histDeferred[n]++ // n ≤ maxThreads: always in range
	if r.store != nil && r.ckptErr == nil && r.checkpointEvery > 0 && r.decisions%r.checkpointEvery == 0 {
		// Snapshots must capture the canonical histograms, so fold the
		// deferred counts in before capturing.
		r.flushBatchLocked()
		if st, err := r.snapshotLocked(); err != nil {
			r.ckptErr = err
		} else if err := r.store.WriteSnapshot(st); err != nil {
			r.ckptErr = err
		}
	}
	return n, true
}

// flushBatchLocked folds the batch's deferred histogram increments —
// runtime-level and mixture-level — into the canonical histograms. Called
// before the writer lock is released (and before any snapshot), so no
// reader or snapshot can observe the deferred state.
func (r *Runtime) flushBatchLocked() {
	if r.mix != nil {
		r.mix.FlushFast()
	}
	for n, c := range r.histDeferred {
		if c != 0 {
			r.histAdd(n, c)
			r.histDeferred[n] = 0
		}
	}
}

// DecideBatch implements sim.BatchPolicy for the runtime adapter: engine-
// driven batch experiments exercise the real batched path.
func (p runtimePolicy) DecideBatch(ds []sim.Decision) []int {
	obs := make([]Observation, len(ds))
	for i, d := range ds {
		obs[i] = Observation{
			Time:           d.Time,
			Features:       d.Features,
			Rate:           d.Rate,
			RegionStart:    d.RegionStart,
			AvailableProcs: d.AvailableProcs,
		}
	}
	return p.r.DecideBatch(obs)
}

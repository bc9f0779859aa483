package moe_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"moe"
	"moe/internal/chaos"
	"moe/internal/expert"
	"moe/internal/features"
	"moe/internal/regress"
	"moe/internal/sim"
	"moe/internal/telemetry"
)

// The differential harness: every scenario stream is pushed down the full
// ladder one observation at a time (DecideFullForTest, which bypasses the
// regime dispatcher Decide and DecideBatch share) and through DecideBatch
// at several batch sizes,
// and everything observable — the decision sequence, the runtime counters,
// the thread histogram, the mixture's full analysis snapshot — must be
// byte-identical. The batch fast path is only allowed to be faster, never
// different.

// batchSizes are the chunkings every scenario is replayed at.
var batchSizes = []int{1, 2, 7, 64}

// steadyObservation is the healthy steady state: clean features, constant
// availability, monotone clock — the stream the fast path compiles for.
func steadyObservation(i int) moe.Observation {
	var f moe.Features
	for j := range f {
		f[j] = 0.15*float64(j+1) + 0.02*float64((i*7+j*3)%11)
	}
	f[features.Processors] = float64(ckptMaxThreads)
	return moe.Observation{
		Time:           0.25 * float64(i),
		Features:       f,
		Rate:           100 + 8*math.Sin(float64(i)/3),
		RegionStart:    i%4 == 0,
		AvailableProcs: ckptMaxThreads,
	}
}

// adversarialObservation interleaves every runtime-level repair into an
// otherwise steady stream: NaN/Inf features, out-of-bound magnitudes,
// negative and non-finite rates, backwards and non-finite time, dropped
// availability.
func adversarialObservation(i int) moe.Observation {
	o := steadyObservation(i)
	switch i % 11 {
	case 2:
		o.Features[features.CPULoad1] = math.NaN()
	case 3:
		o.Features[features.CachedMemory] = math.Inf(1)
	case 4:
		o.Features[features.PageFreeRate] = -2 * features.MaxMagnitude
	case 5:
		o.Rate = math.NaN()
	case 6:
		o.Rate = -50
	case 7:
		o.Time = 0.25*float64(i) - 3 // runs backwards
	case 8:
		o.Time = math.Inf(-1)
	case 9:
		o.AvailableProcs = 0
		o.Features[features.Processors] = 0 // full dropout ladder
	}
	return o
}

// recorderPolicy wraps a policy and records every decision it is asked to
// make as a replayable observation — used underneath a chaos injector to
// capture post-fault observation streams.
type recorderPolicy struct {
	inner moe.Policy
	obs   []moe.Observation
}

func (p *recorderPolicy) Name() string { return p.inner.Name() }

func (p *recorderPolicy) Decide(d sim.Decision) int {
	p.obs = append(p.obs, moe.Observation{
		Time:           d.Time,
		Features:       d.Features,
		Rate:           d.Rate,
		RegionStart:    d.RegionStart,
		AvailableProcs: d.AvailableProcs,
	})
	return p.inner.Decide(d)
}

// recordFaultedStream replays `steps` generated observations through a
// runtime whose policy chain is injector(recorder(mixture)) and returns the
// post-fault observations the policy actually saw — a deterministic
// corrupted stream to feed the differential pairs.
func recordFaultedStream(t testing.TB, steps int, seed uint64, faults []chaos.ScheduledFault, gen func(int) moe.Observation) []moe.Observation {
	t.Helper()
	m, err := moe.NewMixture(moe.CanonicalExperts())
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorderPolicy{inner: m}
	inj, err := chaos.NewInjector(rec, seed, faults...)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := moe.NewRuntime(inj, ckptMaxThreads)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		rt.Decide(gen(i))
	}
	return rec.obs
}

// wildExpertSet pairs one sane expert with one whose environment model is
// wrong by orders of magnitude: the wild one quarantines as soon as it is
// scored, then cycles through cooldown, probation and re-quarantine for the
// rest of the stream — the full health state machine, continuously live.
func wildExpertSet() moe.ExpertSet {
	flat := func(val float64) *regress.Model {
		return &regress.Model{Weights: make([]float64, features.Dim), Bias: val}
	}
	mk := func(name string, threads, env float64) *moe.Expert {
		return &moe.Expert{
			Name:       name,
			Threads:    flat(threads),
			Env:        expert.NormEnvModel{Model: flat(env)},
			MaxThreads: ckptMaxThreads,
		}
	}
	return moe.ExpertSet{mk("sane", 4, 2), mk("wild", 2, 1e7)}
}

// batchScenario is one differential case: a policy constructor (fresh state
// per runtime — stateful policies must never be shared) and the observation
// stream to replay.
type batchScenario struct {
	build func(t testing.TB) moe.Policy
	obs   []moe.Observation
}

func canonicalMixture(t testing.TB) moe.Policy {
	m, err := moe.NewMixture(moe.CanonicalExperts())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// batchScenarios enumerates the differential suite: the golden steady
// state, the checkpointing stream (availability steps), a chaos-corrupted
// stream covering every observation-path fault family, a synthetic hotplug
// storm, an adversarial runtime-repair stream, and a quarantine/probation
// churn stream on a wild expert pool.
func batchScenarios(t testing.TB) map[string]batchScenario {
	gen := func(n int, f func(int) moe.Observation) []moe.Observation {
		obs := make([]moe.Observation, n)
		for i := range obs {
			obs[i] = f(i)
		}
		return obs
	}
	hotplug := func(i int) moe.Observation {
		o := steadyObservation(i)
		p := 1 + (i*5)%ckptMaxThreads
		o.AvailableProcs = p
		o.Features[features.Processors] = float64(p)
		if i%13 == 0 {
			o.AvailableProcs = 0 // fall back to f5
		}
		return o
	}
	return map[string]batchScenario{
		"steady":      {canonicalMixture, gen(200, steadyObservation)},
		"checkpoint":  {canonicalMixture, gen(200, ckptObservation)},
		"adversarial": {canonicalMixture, gen(200, adversarialObservation)},
		"hotplug":     {canonicalMixture, gen(200, hotplug)},
		"chaos":       {canonicalMixture, recordFaultedStream(t, 160, 77, telemetryFaults(), ckptObservation)},
		"quarantine": {
			func(t testing.TB) moe.Policy {
				m, err := moe.NewMixture(wildExpertSet())
				if err != nil {
					t.Fatal(err)
				}
				return m
			},
			gen(200, steadyObservation),
		},
	}
}

// runSingle replays obs one at a time down the full ladder, bypassing the
// regime dispatcher: the reference every dispatched path is pinned to.
func runSingle(t testing.TB, p moe.Policy, obs []moe.Observation) ([]int, *moe.Runtime) {
	t.Helper()
	rt, err := moe.NewRuntime(p, ckptMaxThreads)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, len(obs))
	for i, o := range obs {
		out[i] = rt.DecideFullForTest(o)
	}
	return out, rt
}

// runBatched replays obs through DecideBatch in chunks of size.
func runBatched(t testing.TB, p moe.Policy, obs []moe.Observation, size int) ([]int, *moe.Runtime) {
	t.Helper()
	rt, err := moe.NewRuntime(p, ckptMaxThreads)
	if err != nil {
		t.Fatal(err)
	}
	var out []int
	for start := 0; start < len(obs); start += size {
		end := start + size
		if end > len(obs) {
			end = len(obs)
		}
		out = rt.DecideBatchInto(out, obs[start:end])
	}
	return out, rt
}

// histogramsEqual compares thread histograms bit-for-bit: the fast path
// must reproduce the exact division, not an approximation of it.
func histogramsEqual(a, b map[int]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for n, av := range a {
		bv, ok := b[n]
		if !ok || math.Float64bits(av) != math.Float64bits(bv) {
			return false
		}
	}
	return true
}

// runtimeFingerprint renders everything a runtime exposes about its state
// (minus the batch dispatcher counters, which legitimately differ between
// the single and batched replay).
func runtimeFingerprint(rt *moe.Runtime) string {
	st, ok := rt.MixtureStatsSnapshot()
	return fmt.Sprintf("decisions=%d sanitized=%d ckpt=%v mixture(%v)=%+v",
		rt.Decisions(), rt.SanitizedValues(), rt.CheckpointErr(), ok, st)
}

// TestDecideBatchEquivalence pins DecideBatch to Decide across every
// scenario and batch size: identical decision streams, identical counters,
// bit-identical histograms and mixture statistics.
func TestDecideBatchEquivalence(t *testing.T) {
	for name, sc := range batchScenarios(t) {
		t.Run(name, func(t *testing.T) {
			want, ref := runSingle(t, sc.build(t), sc.obs)
			for _, size := range batchSizes {
				got, rt := runBatched(t, sc.build(t), sc.obs, size)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("batch=%d: decision %d diverged: %d vs %d", size, i, got[i], want[i])
					}
				}
				if g, w := runtimeFingerprint(rt), runtimeFingerprint(ref); g != w {
					t.Fatalf("batch=%d: runtime state diverged:\n got %s\nwant %s", size, g, w)
				}
				if !histogramsEqual(rt.ThreadHistogram(), ref.ThreadHistogram()) {
					t.Fatalf("batch=%d: thread histograms diverged:\n got %v\nwant %v",
						size, rt.ThreadHistogram(), ref.ThreadHistogram())
				}
				bs := rt.BatchStats()
				if bs.FastDecisions+bs.FullDecisions != len(sc.obs) {
					t.Fatalf("batch=%d: dispatcher counted %d+%d decisions, want %d",
						size, bs.FastDecisions, bs.FullDecisions, len(sc.obs))
				}
				if name == "steady" && bs.FastDecisions == 0 {
					t.Fatalf("batch=%d: steady stream never hit the fast path", size)
				}
			}
		})
	}
}

// TestDecideBatchStaysFast pins the dispatcher's precision on the healthy
// stream: after the cold first decision, every steady observation must be
// served by the fast path — demotions there would silently void the
// throughput win.
func TestDecideBatchStaysFast(t *testing.T) {
	obs := make([]moe.Observation, 192)
	for i := range obs {
		obs[i] = steadyObservation(i)
	}
	_, rt := runBatched(t, canonicalMixture(t), obs, 64)
	bs := rt.BatchStats()
	if bs.FullDecisions != 1 {
		t.Fatalf("steady stream demoted %d decisions (want only the cold first); stats %+v",
			bs.FullDecisions, bs)
	}
	if bs.Batches != 3 {
		t.Fatalf("batches = %d, want 3", bs.Batches)
	}
}

// TestDecideSingleShotFast pins single-shot Decide as the degenerate batch.
// On the steady stream every decision after the cold first one is served by
// the fast path, and with a store attached (a snapshot every 16 decisions)
// the run stays byte-identical to its full-ladder twin: decisions, runtime
// state, histograms, and every journal and snapshot byte on disk.
func TestDecideSingleShotFast(t *testing.T) {
	const total, every = 200, 16
	run := func(decide func(*moe.Runtime, moe.Observation) int) ([]int, *moe.Runtime, map[string][]byte) {
		dir := t.TempDir()
		store, err := moe.OpenCheckpoint(dir)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := moe.NewRuntime(canonicalMixture(t), ckptMaxThreads)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.AttachStore(store, every); err != nil {
			t.Fatal(err)
		}
		out := make([]int, total)
		for i := range out {
			out[i] = decide(rt, steadyObservation(i))
		}
		if err := rt.CheckpointErr(); err != nil {
			t.Fatal(err)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string][]byte, len(entries))
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = data
		}
		return out, rt, files
	}
	want, ref, wantFiles := run((*moe.Runtime).DecideFullForTest)
	got, rt, gotFiles := run((*moe.Runtime).Decide)

	if bs := rt.BatchStats(); bs.FullDecisions != 1 || bs.FastDecisions != total-1 || bs.Batches != 0 {
		t.Fatalf("single-shot dispatch %+v, want 1 full (the cold first), %d fast, 0 batches", bs, total-1)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decision %d diverged: %d vs %d", i, got[i], want[i])
		}
	}
	if g, w := runtimeFingerprint(rt), runtimeFingerprint(ref); g != w {
		t.Fatalf("runtime state diverged:\n got %s\nwant %s", g, w)
	}
	if !histogramsEqual(rt.ThreadHistogram(), ref.ThreadHistogram()) {
		t.Fatalf("thread histograms diverged:\n got %v\nwant %v", rt.ThreadHistogram(), ref.ThreadHistogram())
	}
	if len(gotFiles) != len(wantFiles) {
		t.Fatalf("checkpoint dir holds %d files, want %d", len(gotFiles), len(wantFiles))
	}
	for name, w := range wantFiles {
		if g, ok := gotFiles[name]; !ok || !bytes.Equal(g, w) {
			t.Fatalf("checkpoint file %s differs from the full-ladder twin's", name)
		}
	}
}

// TestDecideBatchEquivalenceInstrumented replays the chaos scenario with a
// registry sink on both runtimes and demands every per-decision telemetry
// family agree exactly. (With a sink attached every decision walks the full
// path, so this pins the batch loop, flush and publish around it — and that
// the moe_decide_batch_* families are strictly additive.)
func TestDecideBatchEquivalenceInstrumented(t *testing.T) {
	sc := batchScenarios(t)["chaos"]

	run := func(batched bool) (*telemetry.Registry, *moe.Runtime) {
		rt, err := moe.NewRuntime(sc.build(t), ckptMaxThreads)
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		rt.SetTelemetry(telemetry.NewRegistrySink(reg))
		if batched {
			for start := 0; start < len(sc.obs); start += 7 {
				end := start + 7
				if end > len(sc.obs) {
					end = len(sc.obs)
				}
				rt.DecideBatch(sc.obs[start:end])
			}
		} else {
			for _, o := range sc.obs {
				rt.Decide(o)
			}
		}
		return reg, rt
	}
	regSingle, _ := run(false)
	regBatch, rt := run(true)

	counters := []struct {
		name   string
		labels []string
	}{
		{"moe_decisions_total", nil},
		{"moe_suspect_observations_total", nil},
		{"moe_rerouted_decisions_total", nil},
		{"moe_fallback_decisions_total", nil},
		{"moe_quarantines_total", nil},
		{"moe_repaired_values_total", []string{"stage", "runtime"}},
		{"moe_repaired_values_total", []string{"stage", "policy"}},
		{"moe_health_transitions_total", []string{"to", "ok"}},
		{"moe_health_transitions_total", []string{"to", "quarantined"}},
		{"moe_health_transitions_total", []string{"to", "probation"}},
	}
	for k := 0; k < 4; k++ {
		counters = append(counters, struct {
			name   string
			labels []string
		}{"moe_expert_selections_total", []string{"expert", fmt.Sprint(k)}})
	}
	for _, c := range counters {
		w := regSingle.Counter(c.name, "", c.labels...).Value()
		g := regBatch.Counter(c.name, "", c.labels...).Value()
		if g != w {
			t.Errorf("%s%v: batched %d vs single %d", c.name, c.labels, g, w)
		}
	}

	// The batch families are additive on top, and account for every
	// decision.
	nBatches := (len(sc.obs) + 6) / 7
	if got := regBatch.Counter("moe_decide_batches_total", "").Value(); got != int64(nBatches) {
		t.Errorf("moe_decide_batches_total = %d, want %d", got, nBatches)
	}
	fast := regBatch.Counter("moe_decide_batch_fast_decisions_total", "").Value()
	full := regBatch.Counter("moe_decide_batch_full_decisions_total", "").Value()
	if fast+full != int64(len(sc.obs)) {
		t.Errorf("batch path counters %d+%d don't cover %d decisions", fast, full, len(sc.obs))
	}
	bs := rt.BatchStats()
	if int64(bs.FastDecisions) != fast || int64(bs.FullDecisions) != full {
		t.Errorf("BatchStats %+v disagrees with registry (%d fast, %d full)", bs, fast, full)
	}
	if regBatch.Histogram("moe_decide_batch_size", "", nil).Count() != int64(nBatches) {
		t.Error("batch size histogram incomplete")
	}
}

// TestDecideBatchCheckpointEquivalence pins the fast path's write-ahead
// journaling: a batched, checkpointed run must journal exactly what a
// single-decision run would, so a crash-recovered runtime lands in the
// identical state and finishes the stream identically.
func TestDecideBatchCheckpointEquivalence(t *testing.T) {
	const total, every, cut = 200, 10, 120
	obs := make([]moe.Observation, total)
	for i := range obs {
		obs[i] = steadyObservation(i)
	}

	want, _ := runSingle(t, canonicalMixture(t), obs)

	dir := t.TempDir()
	store, err := moe.OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := moe.NewRuntime(canonicalMixture(t), ckptMaxThreads)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.AttachStore(store, every); err != nil {
		t.Fatal(err)
	}
	var got []int
	for start := 0; start < cut; start += 7 {
		end := start + 7
		if end > cut {
			end = cut
		}
		got = rt.DecideBatchInto(got, obs[start:end])
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("checkpointed batch decision %d diverged: %d vs %d", i, got[i], want[i])
		}
	}
	if rt.BatchStats().FastDecisions == 0 {
		t.Fatal("checkpointed batches never hit the fast path — journaling there untested")
	}
	if err := rt.CheckpointErr(); err != nil {
		t.Fatal(err)
	}

	// "Crash", recover, finish the stream one decision at a time.
	store2, err := moe.OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := moe.NewRuntime(canonicalMixture(t), ckptMaxThreads)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Resume(store2); err != nil {
		t.Fatal(err)
	}
	if resumed.Decisions() != cut {
		t.Fatalf("recovered %d decisions, want %d", resumed.Decisions(), cut)
	}
	for i := cut; i < total; i++ {
		if n := resumed.Decide(obs[i]); n != want[i] {
			t.Fatalf("post-recovery decision %d diverged: %d vs %d", i, n, want[i])
		}
	}
}

// FuzzDecideBatchEquivalence fuzzes the differential property itself:
// arbitrary observation streams (clean, corrupt, regressive — whatever the
// generator derives from the seed) chunked at an arbitrary batch size must
// match the full-ladder replay exactly.
func FuzzDecideBatchEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(1))
	f.Add(uint64(77), uint8(2))
	f.Add(uint64(0xdeadbeef), uint8(7))
	f.Add(uint64(42), uint8(64))
	f.Fuzz(func(t *testing.T, seed uint64, sizeByte uint8) {
		size := int(sizeByte%64) + 1
		rng := seed
		next := func() uint64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return rng >> 17
		}
		obs := make([]moe.Observation, 96)
		clock := 0.0
		for i := range obs {
			o := steadyObservation(i)
			o.Time = clock
			if next()%4 == 0 {
				clock += float64(next()%100) / 50
			}
			switch next() % 13 {
			case 0:
				o.Features[int(next())%features.Dim] = math.NaN()
			case 1:
				o.Features[int(next())%features.Dim] = math.Inf(1)
			case 2:
				o.Features[int(next())%features.Dim] = -3 * features.MaxMagnitude
			case 3:
				o.Rate = -float64(next() % 1000)
			case 4:
				o.Time = clock - 5
			case 5:
				p := int(next() % 16)
				o.AvailableProcs = p
				o.Features[features.Processors] = float64(p)
			case 6:
				for j := features.EnvStart; j < features.Dim; j++ {
					o.Features[j] = 0 // dropout
				}
			}
			obs[i] = o
		}
		want, ref := runSingle(t, canonicalMixture(t), obs)
		got, rt := runBatched(t, canonicalMixture(t), obs, size)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch=%d: decision %d diverged: %d vs %d", size, i, got[i], want[i])
			}
		}
		if g, w := runtimeFingerprint(rt), runtimeFingerprint(ref); g != w {
			t.Fatalf("batch=%d: state diverged:\n got %s\nwant %s", size, g, w)
		}
	})
}

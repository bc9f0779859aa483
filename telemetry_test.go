package moe_test

import (
	"bytes"
	"fmt"
	"testing"

	"moe"
	"moe/internal/atomicio"
	"moe/internal/chaos"
	"moe/internal/telemetry"
)

// telemetryFaults staggers one fault of every observation-path kind across
// the synthetic ckptObservation stream (15 seconds of decision clock).
func telemetryFaults() []chaos.ScheduledFault {
	return []chaos.ScheduledFault{
		{Fault: chaos.FeatureNoise{Sigma: 0.4}, Schedule: chaos.Window(1, 3)},
		{Fault: &chaos.Dropout{}, Schedule: chaos.Window(5, 2)},
		{Fault: chaos.Corrupt{Prob: 0.5}, Schedule: chaos.Window(8, 2)},
		{Fault: chaos.HotplugStorm{MaxProcs: ckptMaxThreads}, Schedule: chaos.Window(11, 2)},
	}
}

// TestRuntimeTelemetryByteIdentity is the observe-never-steer guarantee at
// the public API: the same observation stream through an instrumented
// runtime (registry sink + NDJSON trace + decision detail) and a silent one
// must produce byte-identical decision sequences — on the clean mixture and
// on a chaos-wrapped one. The trace must also round-trip through ReadTrace
// with one coherent record per decision.
func TestRuntimeTelemetryByteIdentity(t *testing.T) {
	const steps = 120
	build := func(wrap bool) moe.Policy {
		m, err := moe.NewMixture(moe.CanonicalExperts())
		if err != nil {
			t.Fatal(err)
		}
		if !wrap {
			return m
		}
		inj, err := chaos.NewInjector(m, 77, telemetryFaults()...)
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	for _, wrap := range []bool{false, true} {
		name := "mixture"
		if wrap {
			name = "chaos-wrapped"
		}
		t.Run(name, func(t *testing.T) {
			silent, err := moe.NewRuntime(build(wrap), ckptMaxThreads)
			if err != nil {
				t.Fatal(err)
			}
			loud, err := moe.NewRuntime(build(wrap), ckptMaxThreads)
			if err != nil {
				t.Fatal(err)
			}
			reg := telemetry.NewRegistry()
			var buf bytes.Buffer
			tw := telemetry.NewTraceWriter(&buf)
			loud.SetTelemetry(telemetry.MultiSink(telemetry.NewRegistrySink(reg), tw))

			for i := 0; i < steps; i++ {
				obs := ckptObservation(i)
				want := silent.Decide(obs)
				got := loud.Decide(obs)
				if got != want {
					t.Fatalf("decision %d diverged under telemetry: %d vs %d", i, got, want)
				}
			}
			if err := tw.Flush(); err != nil {
				t.Fatal(err)
			}
			recs, err := telemetry.ReadTrace(&buf)
			if err != nil {
				t.Fatalf("trace round-trip: %v", err)
			}
			if len(recs) != steps {
				t.Fatalf("trace has %d records, want %d", len(recs), steps)
			}
			selected := 0
			for i, rec := range recs {
				if rec.Seq != i {
					t.Fatalf("record %d has seq %d", i, rec.Seq)
				}
				if rec.Threads < 1 || rec.Threads > ckptMaxThreads {
					t.Fatalf("record %d: threads %d out of range", i, rec.Threads)
				}
				if len(rec.RawFeatures) != len(rec.Features) || len(rec.Features) == 0 {
					t.Fatalf("record %d: feature vectors missing", i)
				}
				if rec.SelectedExpert >= 0 {
					selected++
					if rec.FallbackRung == "" {
						t.Fatalf("record %d: expert selected but no rung", i)
					}
				}
			}
			if selected == 0 {
				t.Error("detail never reported a selected expert — detailer not found through the wrap chain")
			}
			if got := reg.Counter("moe_decisions_total", "").Value(); got != steps {
				t.Errorf("moe_decisions_total = %d, want %d", got, steps)
			}
			if reg.Histogram("moe_decision_seconds", "", nil).Count() != steps {
				t.Error("decision latency histogram incomplete")
			}
		})
	}
}

// TestMixtureStatsSnapshotThroughWrapper is the regression test for the
// wrapped-policy blind spot: MixtureStatsSnapshot used to type-assert the
// runtime's policy directly, so wrapping the mixture (in a chaos injector,
// say) silently disabled mixture analysis. The Unwrap convention restores
// it.
func TestMixtureStatsSnapshotThroughWrapper(t *testing.T) {
	m, err := moe.NewMixture(moe.CanonicalExperts())
	if err != nil {
		t.Fatal(err)
	}
	inj, err := chaos.NewInjector(m, 7, telemetryFaults()...)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := moe.NewRuntime(inj, ckptMaxThreads)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		rt.Decide(ckptObservation(i))
	}
	st, ok := rt.MixtureStatsSnapshot()
	if !ok {
		t.Fatal("MixtureStatsSnapshot did not see through the injector")
	}
	if st.Decisions != 20 {
		t.Errorf("snapshot decisions = %d, want 20", st.Decisions)
	}

	// A runtime whose chain contains no mixture still reports ok=false.
	plain, err := moe.NewRuntime(moe.NewDefaultPolicy(), ckptMaxThreads)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.MixtureStatsSnapshot(); ok {
		t.Error("non-mixture policy must report ok=false")
	}
}

// TestRuntimeCheckpointDegradedVisible pins the degraded-store path end to
// end: appends keep succeeding, a periodic snapshot write fails, the
// runtime latches the error and keeps deciding — and the failure is
// visible through CheckpointErr, the trace records, and the registry gauge,
// while recovery from the surviving journal stays bit-consistent with an
// uninterrupted run.
func TestRuntimeCheckpointDegradedVisible(t *testing.T) {
	const total, every = 30, 10

	// Reference run, never checkpointed.
	ref, err := moe.NewRuntime(ckptPolicies(t)["mixture"](), ckptMaxThreads)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, total)
	for i := 0; i < total; i++ {
		want[i] = ref.Decide(ckptObservation(i))
	}

	dir := t.TempDir()
	store, err := moe.OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := moe.NewRuntime(ckptPolicies(t)["mixture"](), ckptMaxThreads)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	store.SetMetrics(reg)
	var buf bytes.Buffer
	tw := telemetry.NewTraceWriter(&buf)
	rt.SetTelemetry(telemetry.MultiSink(telemetry.NewRegistrySink(reg), tw))
	if err := rt.AttachStore(store, every); err != nil {
		t.Fatal(err)
	}
	// From here on every snapshot write dies at the rename — the journal is
	// untouched and keeps accepting appends.
	store.SetSnapshotFault(func(stage atomicio.Stage) error {
		if stage == atomicio.StageRename {
			return fmt.Errorf("injected: disk pulled at %s", stage)
		}
		return nil
	})

	got := make([]int, total)
	for i := 0; i < total; i++ {
		got[i] = rt.Decide(ckptObservation(i))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decision %d diverged after checkpoint degradation: %d vs %d", i, got[i], want[i])
		}
	}
	if rt.CheckpointErr() == nil {
		t.Fatal("snapshot failure did not latch")
	}

	// The failure is visible everywhere it should be.
	if reg.Gauge("moe_checkpoint_degraded", "").Value() != 1 {
		t.Error("degraded gauge not raised")
	}
	if reg.Counter("moe_checkpoint_errors_total", "").Value() == 0 {
		t.Error("degraded decisions not counted")
	}
	if reg.Counter("checkpoint_write_errors_total", "", "op", "snapshot").Value() == 0 {
		t.Error("store did not count the failed snapshot")
	}
	if reg.Histogram("checkpoint_append_seconds", "", nil).Count() == 0 {
		t.Error("store did not time any appends")
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if recs[len(recs)-1].CheckpointErr == "" {
		t.Error("trace records after the failure must carry the latched error")
	}

	// Recovery consistency: the journal holds every append up to the failed
	// snapshot at decision `every`; a resumed runtime replays them and then
	// finishing the stream matches the reference run exactly.
	store2, err := moe.OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := moe.NewRuntime(ckptPolicies(t)["mixture"](), ckptMaxThreads)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := resumed.Resume(store2)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Decisions() != every {
		t.Fatalf("recovered %d decisions, want %d\nreport: %v", resumed.Decisions(), every, rec.Report)
	}
	for i := every; i < total; i++ {
		if n := resumed.Decide(ckptObservation(i)); n != want[i] {
			t.Fatalf("recovered decision %d diverged: %d vs %d", i, n, want[i])
		}
	}
}

// benchRuntime builds a mixture runtime for the Decide benchmarks.
func benchRuntime(b *testing.B) *moe.Runtime {
	b.Helper()
	m, err := moe.NewMixture(moe.CanonicalExperts())
	if err != nil {
		b.Fatal(err)
	}
	rt, err := moe.NewRuntime(m, ckptMaxThreads)
	if err != nil {
		b.Fatal(err)
	}
	return rt
}

// BenchmarkDecide measures the uninstrumented full ladder; its instrumented
// twin below bounds the telemetry overhead (the acceptance bar is ≤10%).
// The i%256 wrap moves the clock backwards, and a repaired timestamp
// demotes Decide off the fast path, so after the first wrap every decision
// walks the full ladder — the path an attached sink forces too, which is
// what keeps this the right baseline for the instrumented bar.
// BenchmarkDecideSteady measures the single-shot fast path.
func BenchmarkDecide(b *testing.B) {
	rt := benchRuntime(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Decide(ckptObservation(i % 256))
	}
}

func BenchmarkDecideInstrumented(b *testing.B) {
	rt := benchRuntime(b)
	rt.SetTelemetry(telemetry.NewRegistrySink(telemetry.NewRegistry()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Decide(ckptObservation(i % 256))
	}
}

// TestPoolTelemetrySeries pins the moe_pool_* family: an evolving runtime
// must publish pool size, epoch, birth/retirement counters and per-slot
// ages that agree with the mixture's own snapshot — and a frozen mixture
// must leave the whole family untouched.
func TestPoolTelemetrySeries(t *testing.T) {
	mix, err := moe.NewEvolvingMixture(moe.CanonicalExperts(),
		moe.EvolutionConfig{Period: 10, MinAge: 20, MinPool: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := moe.NewRuntime(mix, ckptMaxThreads)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	rt.SetTelemetry(telemetry.NewRegistrySink(reg))
	for i := 0; i < 120; i++ {
		rt.Decide(ckptObservation(i))
	}

	st := mix.Snapshot()
	if st.PoolBirths == 0 {
		t.Fatal("lifecycle never fired; the test is vacuous")
	}
	if got := reg.Counter("moe_pool_births_total", "").Value(); got != int64(st.PoolBirths) {
		t.Errorf("moe_pool_births_total = %d, want %d", got, st.PoolBirths)
	}
	if got := reg.Counter("moe_pool_retirements_total", "").Value(); got != int64(st.PoolRetirements) {
		t.Errorf("moe_pool_retirements_total = %d, want %d", got, st.PoolRetirements)
	}
	if got := reg.Gauge("moe_pool_size", "").Value(); got != float64(len(st.ExpertNames)) {
		t.Errorf("moe_pool_size = %v, want %d", got, len(st.ExpertNames))
	}
	if got := reg.Gauge("moe_pool_epoch", "").Value(); got != float64(st.PoolEpoch) {
		t.Errorf("moe_pool_epoch = %v, want %d", got, st.PoolEpoch)
	}
	// Founding experts have lived every decision; their age gauge must say
	// so (slot 0 is a founder: retirements here are bounded by MinPool=2,
	// and the lowest-index retiree rule never fires before MinAge).
	if got := reg.Gauge("moe_pool_expert_age", "", "expert", "0").Value(); got <= 0 {
		t.Errorf("moe_pool_expert_age{expert=0} = %v, want > 0", got)
	}

	// Frozen mixture: the family stays at zero.
	frozen, err := moe.NewMixture(moe.CanonicalExperts())
	if err != nil {
		t.Fatal(err)
	}
	frt, err := moe.NewRuntime(frozen, ckptMaxThreads)
	if err != nil {
		t.Fatal(err)
	}
	freg := telemetry.NewRegistry()
	frt.SetTelemetry(telemetry.NewRegistrySink(freg))
	for i := 0; i < 60; i++ {
		frt.Decide(ckptObservation(i))
	}
	if got := freg.Counter("moe_pool_births_total", "").Value(); got != 0 {
		t.Errorf("frozen pool published %d births", got)
	}
	if got := freg.Gauge("moe_pool_size", "").Value(); got != 0 {
		t.Errorf("frozen pool published size %v (family must stay silent)", got)
	}
}

package moe_test

import (
	"testing"

	"moe"
	"moe/internal/chaos"
	"moe/internal/features"
	"moe/internal/telemetry"
)

// The regime dispatcher's safety contract under fault injection: a decision
// on which ANY ladder rung engages — a sanitizer repair, a suspect verdict,
// a reroute or fallback, a health transition — must never be served by the
// fast path. The test derives ground truth from an instrumented full-ladder
// reference run (DecideFullForTest; telemetry observes and never steers, so
// the reference decisions are the silent ones), then replays the identical
// stream through the batch dispatcher one observation per batch, reading
// the fast/full counters after each.
//
// Demotion is allowed to be conservative (the plan may fail on decisions
// the ladder would have let through — e.g. a repaired timestamp, which the
// full path silently clamps), so the implication is one-directional; the
// byte-identity check is what keeps over-demotion from hiding divergence.

// rungCapture flags each decision on which the reference run's ladder
// engaged.
type rungCapture struct {
	engaged []bool
}

func (c *rungCapture) RecordDecision(rec *telemetry.Record) {
	c.engaged = append(c.engaged,
		rec.Suspect ||
			rec.RuntimeRepaired > 0 ||
			rec.PolicyRepaired > 0 ||
			rec.FallbackRung == "reroute" ||
			rec.FallbackRung == "os-default" ||
			len(rec.HealthEvents) > 0)
}

func TestDecideBatchChaosDemotions(t *testing.T) {
	// wantDemotions: fault kinds whose corruption is directly visible to
	// the dispatcher and must demote while active. The others are either
	// invisible by design (rate-blackout: no ladder rung reads the rate) or
	// only sometimes detectable (feature-noise and stale-dropout produce
	// clean, plausible observations); for those the safety implication and
	// byte-identity are the whole contract.
	wantDemotions := map[string]bool{
		"nan-corruption": true,
		"hotplug-storm":  true,
		"zero-dropout":   true,
		"clock-skew":     true,
	}
	// Zero-dropout is only condemnable when the environment it blanks was
	// large relative to suspectErrRatio — a zeroed observation of an
	// already-small environment is within consensus tolerance, which the
	// steady ckptObservation stream demonstrates (it engages no rung at
	// all). Drive dropout with a big-environment stream so the consensus
	// rung has something to notice.
	bigEnv := func(i int) moe.Observation {
		o := ckptObservation(i)
		o.Features[features.CPULoad1] = 40 + 0.1*float64(i%7)
		o.Features[features.CPULoad5] = 40
		return o
	}
	for _, kind := range chaos.Kinds() {
		t.Run(kind, func(t *testing.T) {
			fault, err := chaos.NewKindFault(kind, ckptMaxThreads)
			if err != nil {
				t.Fatal(err)
			}
			gen := ckptObservation
			if kind == "zero-dropout" {
				gen = bigEnv
			}
			obs := recordFaultedStream(t, 160, 123, []chaos.ScheduledFault{fault}, gen)

			// Instrumented reference: ground truth for decisions and for
			// which of them engaged a rung.
			ref, err := moe.NewRuntime(canonicalMixture(t), ckptMaxThreads)
			if err != nil {
				t.Fatal(err)
			}
			cap := &rungCapture{}
			ref.SetTelemetry(cap)
			want := make([]int, len(obs))
			for i, o := range obs {
				want[i] = ref.DecideFullForTest(o)
			}

			// Batch dispatcher, one observation per batch, fast/full read
			// back after each call.
			rt, err := moe.NewRuntime(canonicalMixture(t), ckptMaxThreads)
			if err != nil {
				t.Fatal(err)
			}
			servedFast := make([]bool, len(obs))
			for i, o := range obs {
				before := rt.BatchStats().FastDecisions
				got := rt.DecideBatch([]moe.Observation{o})
				if got[0] != want[i] {
					t.Fatalf("decision %d diverged under %s: %d vs %d", i, kind, got[0], want[i])
				}
				servedFast[i] = rt.BatchStats().FastDecisions > before
			}

			demoted := 0
			for i := range obs {
				if cap.engaged[i] && servedFast[i] {
					t.Errorf("decision %d: ladder engaged on the reference but the fast path served it", i)
				}
				if !servedFast[i] {
					demoted++
				}
			}
			t.Logf("%s: %d/%d demoted", kind, demoted, len(obs))
			// The cold first decision always demotes; count beyond it.
			if wantDemotions[kind] && demoted <= 1 {
				t.Errorf("%s corrupts observations directly but never demoted", kind)
			}
			if kind == "rate-blackout" && demoted > len(obs)/2 {
				t.Errorf("rate-blackout demoted %d/%d decisions — it must be transparent to the ladder", demoted, len(obs))
			}
		})
	}
}

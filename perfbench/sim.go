package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"moe"
)

// sim-eval: the paper's §6.4 evaluation loop, in-process and serial on one
// locked thread. A seeded scenario set (16 targets x {low, high} hardware-change
// frequency x simEvalSeeds) runs again and again, each scenario twice: under
// the runtime-wrapped canonical mixture, which takes single-shot
// Runtime.Decide and the full ladder, and under the OpenMP default. No
// serving layer is involved.
const (
	simEvalSeeds     = 2
	simEvalSetupReps = 5
	simWindowSamples = 1000
)

// timedPolicy exposes only Decide (so the engine takes the single-shot
// path) and, when a tracer is set, records a span around every call.
type timedPolicy struct {
	inner  moe.Policy
	tr     *tracer
	parent int64
	inside time.Duration
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Decide(d moe.Decision) int {
	if p.tr == nil {
		return p.inner.Decide(d)
	}
	start := time.Now()
	n := p.inner.Decide(d)
	end := time.Now()
	p.inside += end.Sub(start)
	p.tr.add("runtime.decide", p.parent, 0, start, end, 0)
	return n
}

// simResult is one scenario run's observable outcome.
type simResult struct {
	exec      float64
	decisions int
}

// evalSet is the seeded scenario list plus the results every pass must
// reproduce.
type evalSet struct {
	scenarios []scenario
	mixture   []simResult
	dflt      []simResult
}

func buildEvalSet(seed uint64) []scenario {
	rng := rand.New(rand.NewSource(int64(seed)))
	var out []scenario
	for s := 0; s < simEvalSeeds; s++ {
		out = append(out, scenarioSet(rng)...)
	}
	return out
}

// runMixture runs one scenario under a fresh runtime-wrapped mixture.
func runMixture(sc scenario, tr *tracer, parent int64) (simResult, *timedPolicy, error) {
	rt, err := newTenantRuntime()
	if err != nil {
		return simResult{}, nil, err
	}
	p := &timedPolicy{inner: rt.SimPolicy(), tr: tr, parent: parent}
	res, err := moe.Simulate(sc.sim(p))
	if err != nil {
		return simResult{}, nil, fmt.Errorf("%s: %w", sc.target, err)
	}
	return simResult{exec: res.ExecTime, decisions: res.Decisions}, p, nil
}

func runDefault(sc scenario) (simResult, error) {
	res, err := moe.Simulate(sc.sim(moe.NewDefaultPolicy()))
	if err != nil {
		return simResult{}, fmt.Errorf("%s: %w", sc.target, err)
	}
	return simResult{exec: res.ExecTime, decisions: res.Decisions}, nil
}

// setupEval builds the scenario set and runs it once in both arms: the
// reference results and the warm-up.
func setupEval(seed uint64) (*evalSet, error) {
	es := &evalSet{scenarios: buildEvalSet(seed)}
	for _, sc := range es.scenarios {
		m, _, err := runMixture(sc, nil, 0)
		if err != nil {
			return nil, err
		}
		d, err := runDefault(sc)
		if err != nil {
			return nil, err
		}
		es.mixture = append(es.mixture, m)
		es.dflt = append(es.dflt, d)
	}
	return es, nil
}

func runSimEval(o *opts) (*outcome, error) {
	out := newOutcome()
	var setups []float64
	var es *evalSet
	for rep := 0; rep < simEvalSetupReps; rep++ {
		t0 := time.Now()
		var err error
		if es, err = setupEval(o.seed); err != nil {
			return nil, err
		}
		setups = append(setups, since(t0))
	}
	out.e2e["setup_s"] = median(setups)

	// Passes are grouped into windows of at least simWindowSamples
	// scenario runs per frequency, so each window's p99 has ten samples
	// beyond it; the figures are medians over the quietest windows.
	var lows, highs []*phaseStats
	var lowMs, highMs []float64
	var mixWall, decideSecs float64
	var passMix, passDflt []float64
	decisions, runs, passes := 0, 0, 0
	var w struct {
		cpu, steal, mix, mixWall float64
		decisions, runs          int
	}
	// Scenario cost is the simulating thread's CPU time: the loop is serial
	// and CPU-bound, and its wall time on a shared virtual machine also
	// counts every stretch the host scheduled someone else.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	newWindow := func() {
		w.cpu, w.steal, w.mix, w.mixWall, w.decisions, w.runs = threadCPU(), stealSeconds(), 0, 0, 0, 0
		lowMs, highMs = lowMs[:0], highMs[:0]
	}
	newWindow()
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(lows) == 0 || time.Now().Before(deadline) {
		var pm, pd float64
		for i, sc := range es.scenarios {
			var parent int64
			if o.traced {
				parent = o.tr.reserve()
			}
			t0, c0 := time.Now(), threadCPU()
			m, pol, err := runMixture(sc, o.tr, parent)
			if err != nil {
				return nil, err
			}
			t1, c1 := time.Now(), threadCPU()
			d, err := runDefault(sc)
			if err != nil {
				return nil, err
			}
			t2, c2 := time.Now(), threadCPU()
			if o.traced {
				o.tr.addWithID(parent, "sim.mixture_arm", 0, uint64(i), t0, t1, pol.inside)
				o.tr.add("sim.default_arm", 0, uint64(i), t1, t2, 0)
			}
			if m != es.mixture[i] || d != es.dflt[i] {
				out.mismatch("scenario %d (%s/%s): results differ between passes", i, sc.target, sc.freq)
			}
			ms := (c1 - c0) * 1e3
			if sc.freq == moe.LowFrequency {
				lowMs = append(lowMs, ms)
			} else {
				highMs = append(highMs, ms)
			}
			pm += c1 - c0
			pd += c2 - c1
			mixWall += t1.Sub(t0).Seconds()
			w.mixWall += t1.Sub(t0).Seconds()
			decideSecs += pol.inside.Seconds()
			w.decisions += m.decisions
			w.runs += 2
			decisions += m.decisions
			runs += 2
		}
		w.mix += pm
		passMix = append(passMix, pm)
		passDflt = append(passDflt, pd)
		passes++
		if len(lowMs) < simWindowSamples || len(highMs) < simWindowSamples {
			continue
		}
		lo, hi := &phaseStats{Name: "low"}, &phaseStats{Name: "high"}
		lo.P50, lo.P99 = quantile(lowMs, 0.5), quantile(lowMs, 0.99)
		hi.P50, hi.P99 = quantile(highMs, 0.5), quantile(highMs, 0.99)
		lo.Sent, hi.Sent = len(lowMs), len(highMs)
		lo.Succeeded, hi.Succeeded = len(lowMs), len(highMs)
		cpu := threadCPU() - w.cpu
		hi.Completed = float64(w.decisions) / w.mixWall
		hi.CPUPerDecision = w.mix * 1e6 / float64(w.decisions)
		hi.Scenarios = float64(w.runs) / cpu
		lo.Steal = stealSeconds() - w.steal
		hi.Steal = lo.Steal
		lo.Seconds, hi.Seconds = cpu, cpu
		lows, highs = append(lows, lo), append(highs, hi)
		newWindow()
	}
	setLatencies(out, lows, highs)
	quiet := quietest(highs)
	v := make([]float64, len(quiet))
	for i, ps := range quiet {
		v[i] = ps.Scenarios
	}
	out.e2e["scenarios_per_s"] = median(v)
	out.report["windows"] = append(lows, highs...)

	var inv float64
	for i := range es.scenarios {
		inv += es.mixture[i].exec / es.dflt[i].exec
	}
	out.e2e["speedup_hmean"] = float64(len(es.scenarios)) / inv
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	out.e2e["peak_rss_mb"] = float64(ru.Maxrss) * 1024 / (1 << 20)
	out.attempted = int64(runs)
	out.report["passes"] = passes
	out.report["scenarios"] = len(es.scenarios)

	verifyEval(out, es)

	if o.traced {
		out.set("runtime.decide_ns", o.tr.quantile("runtime.decide", 0.5), "ns")
		out.set("runtime.decide_ns.p99", o.tr.quantile("runtime.decide", 0.99), "ns")
		out.set("sim.mixture_arm_s", median(passMix), "s")
		out.set("sim.default_arm_s", median(passDflt), "s")
		out.set("sim.decisions", float64(decisions/passes), "count")
		out.set("sim.engine_us_per_decision", (mixWall-decideSecs)/float64(decisions)*1e6, "us")
	}
	return out, nil
}

// verifyEval re-runs every scenario with a recorder: the simulation must
// reproduce the timed passes' results, and the recorded decision sequence
// replayed through DecideBatch on a fresh runtime must match it exactly.
func verifyEval(out *outcome, es *evalSet) {
	for i, sc := range es.scenarios {
		rt, err := newTenantRuntime()
		if err != nil {
			out.mismatch("verify: %v", err)
			return
		}
		rec := &recorder{inner: rt.SimPolicy()}
		res, err := moe.Simulate(sc.sim(rec))
		if err != nil {
			out.mismatch("verify %s: %v", sc.target, err)
			continue
		}
		if (simResult{res.ExecTime, res.Decisions}) != es.mixture[i] {
			out.mismatch("scenario %d (%s): recorded run differs from the timed passes", i, sc.target)
		}
		got, err := solo(rec.obs)
		if err != nil {
			out.mismatch("verify: %v", err)
			return
		}
		if !equalInts(got, rec.dec) {
			out.mismatch("scenario %d (%s): DecideBatch replay differs from single-shot Decide", i, sc.target)
		}
	}
}

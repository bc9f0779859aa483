package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"moe"
	"moe/internal/workload"
)

// maxThreads is the machine cap of every tenant runtime (moed's default).
const maxThreads = 32

// scenario is one §6.4 dynamic run: a target program under a small
// co-runner set with processor availability changing at freq.
type scenario struct {
	target   string
	corunner []string
	freq     moe.HardwareFrequency
	seed     uint64
}

func (s scenario) sim(p moe.Policy) moe.Simulation {
	return moe.Simulation{Target: s.target, Policy: p, Workload: s.corunner, Frequency: s.freq, Seed: s.seed}
}

// scenarioSet draws, from rng, every (program, frequency) pair of the
// paper's dynamic evaluation once, in shuffled order, each with a random
// small co-runner set and its own simulation seed.
func scenarioSet(rng *rand.Rand) []scenario {
	sets := workload.Sets(workload.Small)
	var out []scenario
	for _, freq := range []moe.HardwareFrequency{moe.LowFrequency, moe.HighFrequency} {
		for _, p := range moe.Programs() {
			out = append(out, scenario{
				target:   p,
				corunner: sets[rng.Intn(len(sets))].Programs,
				freq:     freq,
				seed:     rng.Uint64(),
			})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// newTenantRuntime is what moed builds for a tenant (serve.DefaultPolicyBuild
// under the default -max-threads): a fresh canonical mixture in a runtime.
func newTenantRuntime() (*moe.Runtime, error) {
	mix, err := moe.NewMixture(moe.CanonicalExperts())
	if err != nil {
		return nil, err
	}
	return moe.NewRuntime(mix, maxThreads)
}

// recorder wraps a runtime's SimPolicy: it shifts the engine's virtual time
// by offset so consecutive scenarios form one monotonic stream, and records
// each observation with the decision the runtime made for it.
type recorder struct {
	inner  moe.Policy
	offset float64
	last   float64
	obs    []moe.Observation
	dec    []int
}

func (r *recorder) Name() string { return "recorder" }

func (r *recorder) Decide(d moe.Decision) int {
	d.Time += r.offset
	r.last = d.Time
	n := r.inner.Decide(d)
	r.obs = append(r.obs, moe.Observation{
		Time:           d.Time,
		Features:       d.Features,
		Rate:           d.Rate,
		RegionStart:    d.RegionStart,
		AvailableProcs: d.AvailableProcs,
	})
	r.dec = append(r.dec, n)
	return n
}

// tenantStream is one tenant's generated input: the observations it sends,
// in order, and the decisions recorded for them in the simulator.
type tenantStream struct {
	obs      []moe.Observation
	recorded []int
}

// genStats describes one input generation.
type genStats struct {
	elapsed     time.Duration
	scenarios   int       // scenario runs, both arms
	mixtureArm  float64   // CPU seconds spent in the recording (mixture) arm
	defaultArm  float64   // CPU seconds spent in the OpenMP-default arm
	runCPU      []float64 // CPU seconds of each scenario run, in order
	decisions   int
	speedupHM   float64
	fastChecked int // decisions re-checked through DecideBatch
}

// genStreams records per-tenant observation streams: each tenant's stream
// concatenates perTenant dynamic scenarios, recorded through one runtime's
// SimPolicy over the canonical mixture, with timestamps shifted so the
// stream stays monotonic. Each scenario also runs under the OpenMP default,
// which gives the speedup the recorded decisions achieved. The recorded
// decisions are then replayed through DecideBatch on a fresh runtime and
// must match exactly (the batch contract moed's hot path relies on).
func genStreams(seed uint64, tenants, perTenant int) ([]tenantStream, genStats, error) {
	var st genStats
	start := time.Now()
	// Arm costs are the generating thread's CPU time (see threadCPU).
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	rng := rand.New(rand.NewSource(int64(seed)))
	out := make([]tenantStream, tenants)
	var inv float64
	// Whole shuffled scenario sets are dealt out in turn, so whenever
	// tenants*perTenant is a multiple of the set size every (program,
	// frequency) pair appears equally often and the work mix does not
	// change with the seed.
	var deck []scenario
	for len(deck) < tenants*perTenant {
		deck = append(deck, scenarioSet(rng)...)
	}
	for ti := range out {
		rt, err := newTenantRuntime()
		if err != nil {
			return nil, st, err
		}
		rec := &recorder{inner: rt.SimPolicy()}
		for k := 0; k < perTenant; k++ {
			sc := deck[ti*perTenant+k]
			c0 := threadCPU()
			mres, err := moe.Simulate(sc.sim(rec))
			if err != nil {
				return nil, st, fmt.Errorf("recording %s: %w", sc.target, err)
			}
			c1 := threadCPU()
			dres, err := moe.Simulate(sc.sim(moe.NewDefaultPolicy()))
			if err != nil {
				return nil, st, fmt.Errorf("default arm %s: %w", sc.target, err)
			}
			c2 := threadCPU()
			st.mixtureArm += c1 - c0
			st.defaultArm += c2 - c1
			st.runCPU = append(st.runCPU, c1-c0, c2-c1)
			st.scenarios += 2
			inv += mres.ExecTime / dres.ExecTime
			rec.offset = math.Ceil(rec.last) + 1
		}
		out[ti] = tenantStream{obs: rec.obs, recorded: rec.dec}
		st.decisions += len(rec.obs)
	}
	st.speedupHM = float64(tenants*perTenant) / inv
	// Batch-equivalence check on the recordings.
	for ti := range out {
		rt, err := newTenantRuntime()
		if err != nil {
			return nil, st, err
		}
		got := rt.DecideBatch(out[ti].obs)
		for i := range got {
			if got[i] != out[ti].recorded[i] {
				return nil, st, fmt.Errorf("tenant %d: DecideBatch replay diverges from the recording at decision %d (%d != %d)",
					ti, i, got[i], out[ti].recorded[i])
			}
		}
		st.fastChecked += len(got)
	}
	st.elapsed = time.Since(start)
	return out, st, nil
}

// cursor walks a tenant's stream, cycling with a further time shift when
// the generated stream is exhausted so a hot tenant never runs dry.
type cursor struct {
	s      *tenantStream
	next   int
	offset float64
}

func (c *cursor) take() moe.Observation {
	if c.next == len(c.s.obs) {
		last := c.s.obs[len(c.s.obs)-1].Time + c.offset
		c.offset = math.Ceil(last) + 1
		c.next = 0
	}
	o := c.s.obs[c.next]
	o.Time += c.offset
	c.next++
	return o
}

// tenantID names tenant i on the daemon.
func tenantID(i int) string { return fmt.Sprintf("t%03d", i) }

// solo replays a tenant's exact sent sequence on a lone runtime built the
// way moed builds tenants.
func solo(sent []moe.Observation) ([]int, error) {
	rt, err := newTenantRuntime()
	if err != nil {
		return nil, err
	}
	return rt.DecideBatch(sent), nil
}

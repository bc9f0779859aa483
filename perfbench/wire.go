package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"moe"
	"moe/internal/wire"
	"moe/moeclient"
)

// wire-steady: moed with persistent tenants at its default durability
// (checkpoint directory set, snapshots every 64 decisions, no journal
// fsync) serving 1-observation frames on two pipelined wire sessions.
// Tenants are drawn with Zipf popularity, so hot tenants coalesce and cold
// ones do not; each tenant is pinned to one connection, which keeps its
// frames in order.
//
// The measured windows are closed loops that keep a fixed number of frames
// outstanding per connection (1 for low, 8 for high). An open loop's tail
// on a shared virtual machine follows the hypervisor's scheduling: in
// probes on a two-CPU guest, window p99 at a fixed offered rate ranged from
// 3 to 40 ms between runs of one seed, far outside any bound a regression
// gate can use, while a closed loop charges a stall only to the frames in
// flight. The open loop is kept for the traced run's slo_rate_fps search,
// where latency runs from each frame's intended send time.
const (
	wireTenants   = 64
	wireZipfS     = 1.1
	wireLowDepth  = 1 // frames outstanding per connection
	wireHighDepth = 8
	wireP99Limit  = 25.0 // ms: the latency limit slo_rate_fps is searched against
	wireSetupReps = 3
	wirePerTenant = 8 // scenarios recorded per tenant stream

	// One measurement cycle is a low window then a high window; cycles
	// repeat until the run's time is spent, so both levels sample the whole
	// run, and each figure is a median over the quietest windows
	// (setLatencies). Windows hold at least 1000 frames, so each window's
	// p99 has ten samples beyond it.
	wireLowWindow  = 500 * time.Millisecond
	wireHighWindow = 400 * time.Millisecond
	// The traced run's slo_rate_fps staircase: wireProbes probes of
	// wireProbeWindow each.
	wireProbeWindow = 350 * time.Millisecond
	wireProbes      = 20
	// The slo_rate_fps staircase starts at wireProbeStart and climbs by
	// wireStepFast until its first failing probe; it then moves by
	// wireStepMid up on a pass and down on a failure until two more
	// reversals, and by wireStep from then on. The estimate is the geometric
	// mean of the last half of the probe rates, taken no earlier than the
	// fine phase.
	wireProbeStart = 16000.0
	wireStepFast   = 1.25
	wireStepMid    = 1.10
	wireStep       = 1.04
)

// wireFlags are the workload's moed flags beyond listen addresses and the
// checkpoint directory. The slot pool is raised so the open-loop search
// queues frames behind a stall instead of refusing them at 64 in flight.
var wireFlags = []string{"-max-inflight", "4096"}

// frameRec is one frame's life. Times are ns since the phase origin.
type frameRec struct {
	tenant   int
	intended int64
	sent     int64
	sendEnd  int64
	recv     int64
	seq      uint64
	status   uint8 // 0 pending, 1 ok, 2 refused, 3 failed
	threads  int
	decided  int64
	obs      moe.Observation
}

const (
	stPending = iota
	stOK
	stRefused
	stFailed
)

// wireRig is the set-up a measured wire-steady run drives.
type wireRig struct {
	d       *daemon
	conns   []*moeclient.Client
	streams []tenantStream
	cursors []cursor
	// solo holds, per tenant, the lone runtime the golden replay feeds
	// with the tenant's exact sent sequence, window by window.
	solo []*soloTenant
	// mismatches collects golden-replay failures as windows complete.
	mismatches []string
	nextSeq    uint64
	dir        string
	gen        genStats
}

func (r *wireRig) close() {
	for _, c := range r.conns {
		c.Close()
	}
	if r.d != nil {
		r.d.kill()
	}
	os.RemoveAll(r.dir)
}

// setupWire generates the inputs, starts moed and warms every tenant with
// one synchronous frame (tenant registration, core build, attach
// snapshot).
func setupWire(o *opts) (*wireRig, error) {
	streams, gst, err := genStreams(o.seed, wireTenants, wirePerTenant)
	if err != nil {
		return nil, err
	}
	r := &wireRig{streams: streams, gen: gst, dir: o.newDir("wire")}
	r.cursors = make([]cursor, wireTenants)
	for i := range r.cursors {
		r.cursors[i].s = &r.streams[i]
	}
	r.solo = make([]*soloTenant, wireTenants)
	for i := range r.solo {
		rt, err := newTenantRuntime()
		if err != nil {
			return nil, err
		}
		r.solo[i] = &soloTenant{rt: rt}
	}
	args := append([]string{"-checkpoint-dir", r.dir}, wireFlags...)
	if r.d, err = startMoed(o.moed, true, args...); err != nil {
		return nil, err
	}
	nconn := min(2, runtime.NumCPU())
	for i := 0; i < nconn; i++ {
		c, err := moeclient.Dial(r.d.streamAddr, 5*time.Second)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		r.conns = append(r.conns, c)
	}
	for ti := 0; ti < wireTenants; ti++ {
		f := &frameRec{tenant: ti, obs: r.cursors[ti].take()}
		resp, err := r.conns[ti%nconn].Do(r.nextSeq, 0, tenantID(ti), "", []moe.Observation{f.obs})
		r.nextSeq++
		if err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up %s: %w", tenantID(ti), err)
		}
		if resp.Err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up %s refused: %v", tenantID(ti), resp.Err)
		}
		f.status, f.threads, f.decided = stOK, resp.Threads[0], resp.Decisions
		r.check(ti, []*frameRec{f})
	}
	return r, nil
}

// phaseStats summarizes one measured window.
type phaseStats struct {
	Name      string  `json:"name"`
	Offered   float64 `json:"offered_fps,omitempty"`
	Depth     int     `json:"depth,omitempty"`
	Seconds   float64 `json:"seconds"`
	Sent      int     `json:"sent"`
	Succeeded int     `json:"succeeded"`
	Refused   int     `json:"refused"`
	Failed    int     `json:"failed"`
	P50       float64 `json:"p50_ms"`
	P99       float64 `json:"p99_ms"`
	Steal     float64 `json:"steal_s"`
	TailP50   float64 `json:"last_quarter_p50_ms"`
	LateP99   float64 `json:"late_p99_ms"`
	LateOver  int     `json:"late_frames"`
	Completed float64 `json:"completed_fps"`
	Scenarios float64 `json:"scenarios_per_s,omitempty"`
	// CPUPerDecision is the serving processes' CPU time per decision
	// (sim-eval: the simulating thread's, per mixture-arm decision).
	CPUPerDecision float64 `json:"cpu_us_per_decision,omitempty"`

	lat    []float64
	frames []*frameRec
}

// lateLimit is how late (ms) a frame may leave before it counts as a late
// frame in the generator-validity report.
const lateLimit = 1.0

// load is what a window offers: an open loop of Poisson arrivals at fps,
// or, with depth set, a closed loop keeping depth frames outstanding on
// each connection.
type load struct {
	fps   float64
	depth int
}

// drive runs one window of 1-observation frames for Zipf-drawn tenants and
// waits for every answer. Open-loop latency runs from each frame's intended
// send time; closed-loop latency from its actual send.
func (r *wireRig) drive(o *opts, name string, phaseSeed int64, ld load, dur time.Duration) (*phaseStats, error) {
	seed := int64(o.seed)*1_000_003 + phaseSeed
	nconn := len(r.conns)
	perConn := make([][]*frameRec, nconn)
	if ld.depth == 0 {
		rng := rand.New(rand.NewSource(seed))
		zipf := rand.NewZipf(rng, wireZipfS, 1, wireTenants-1)
		var t float64
		for i := 0; i < int(ld.fps*dur.Seconds()); i++ {
			t += rng.ExpFloat64() / ld.fps
			ti := int(zipf.Uint64())
			f := &frameRec{tenant: ti, intended: int64(t * 1e9), obs: r.cursors[ti].take(), seq: r.nextSeq}
			r.nextSeq++
			perConn[ti%nconn] = append(perConn[ti%nconn], f)
		}
	}

	steal0 := stealSeconds()
	cpu0, err := procCPUSeconds(r.d.pid())
	if err != nil {
		return nil, err
	}
	origin := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, 2*nconn)
	var seqMu sync.Mutex
	for ci, c := range r.conns {
		// inflight carries sent frames to the reader in send order; in a
		// closed loop its capacity (depth-1, plus the frame the reader
		// holds) is the window of outstanding frames.
		capacity := len(perConn[ci])
		if ld.depth > 0 {
			capacity = ld.depth - 1
		}
		inflight := make(chan *frameRec, capacity)
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer close(inflight)
			obs := make([]moe.Observation, 1)
			flush := func() bool {
				if err := c.Flush(); err != nil {
					errs <- fmt.Errorf("flush: %w", err)
					c.Close() // unblocks the reader
					return false
				}
				return true
			}
			send := func(f *frameRec) bool {
				f.sent = time.Since(origin).Nanoseconds()
				if ld.depth > 0 {
					f.intended = f.sent
				}
				obs[0] = f.obs
				if err := c.Send(f.seq, 0, tenantID(f.tenant), "", obs); err != nil {
					errs <- fmt.Errorf("send: %w", err)
					c.Close()
					return false
				}
				return true
			}
			if ld.depth > 0 { // closed loop: this connection's tenants, Zipf by rank
				rng := rand.New(rand.NewSource(seed*31 + int64(ci)))
				zipf := rand.NewZipf(rng, wireZipfS, 1, uint64(wireTenants/nconn-1))
				end := origin.Add(dur)
				for time.Now().Before(end) {
					ti := int(zipf.Uint64())*nconn + ci
					seqMu.Lock()
					f := &frameRec{tenant: ti, obs: r.cursors[ti].take(), seq: r.nextSeq}
					r.nextSeq++
					seqMu.Unlock()
					select {
					case inflight <- f:
					default:
						if !flush() {
							return
						}
						inflight <- f
					}
					if !send(f) {
						return
					}
					if o.traced {
						f.sendEnd = time.Since(origin).Nanoseconds()
					}
					perConn[ci] = append(perConn[ci], f)
				}
				flush()
				return
			}
			list := perConn[ci]
			i := 0
			for i < len(list) { // open loop: send every frame due, flush, sleep to the next
				now := time.Since(origin).Nanoseconds()
				if wait := list[i].intended - now; wait > 0 {
					time.Sleep(time.Duration(wait))
					continue
				}
				for i < len(list) && list[i].intended <= now {
					inflight <- list[i]
					if !send(list[i]) {
						return
					}
					i++
				}
				if !flush() {
					return
				}
				if o.traced {
					end := time.Since(origin).Nanoseconds()
					for j := i - 1; j >= 0 && list[j].sendEnd == 0; j-- {
						list[j].sendEnd = end
					}
				}
			}
		}()
		go func() { // reader: answers arrive in this connection's send order
			defer wg.Done()
			for f := range inflight {
				resp, err := c.Recv()
				if err != nil {
					errs <- fmt.Errorf("recv: %w", err)
					for range inflight { // let the writer finish
					}
					return
				}
				f.recv = time.Since(origin).Nanoseconds()
				if resp.Seq != f.seq {
					errs <- fmt.Errorf("response seq %d, want %d", resp.Seq, f.seq)
					for range inflight {
					}
					return
				}
				var se *moeclient.ServerError
				switch {
				case resp.Err == nil && len(resp.Threads) == 1:
					f.status, f.threads, f.decided = stOK, resp.Threads[0], resp.Decisions
				case errors.As(resp.Err, &se) && se.Code != "deadline-exceeded":
					f.status = stRefused
				default:
					f.status = stFailed
				}
			}
		}()
	}
	wg.Wait()
	cpu1, err := procCPUSeconds(r.d.pid())
	if err != nil {
		return nil, err
	}
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	var frames []*frameRec
	for _, list := range perConn {
		frames = append(frames, list...)
	}
	ps := &phaseStats{Name: name, Offered: ld.fps, Depth: ld.depth, Seconds: dur.Seconds(), Sent: len(frames),
		frames: frames, Steal: stealSeconds() - steal0}
	var late []float64
	var lastEnd int64
	byTenant := map[int][]*frameRec{}
	sort.Slice(frames, func(i, j int) bool { return frames[i].sent < frames[j].sent })
	for _, f := range frames {
		late = append(late, float64(f.sent-f.intended)/1e6)
		if float64(f.sent-f.intended)/1e6 > lateLimit {
			ps.LateOver++
		}
		switch f.status {
		case stOK:
			ps.Succeeded++
			ps.lat = append(ps.lat, float64(f.recv-f.intended)/1e6)
		case stRefused:
			ps.Refused++
		default:
			ps.Failed++
		}
		if f.status != stRefused {
			byTenant[f.tenant] = append(byTenant[f.tenant], f)
		}
		if f.recv > lastEnd {
			lastEnd = f.recv
		}
	}
	for ti, list := range byTenant {
		r.check(ti, list)
	}
	ps.LateP99 = quantile(late, 0.99)
	ps.P50 = quantile(append([]float64(nil), ps.lat...), 0.5)
	ps.P99 = quantile(append([]float64(nil), ps.lat...), 0.99)
	if q := len(ps.lat) / 4; q > 0 {
		ps.TailP50 = median(append([]float64(nil), ps.lat[len(ps.lat)-q:]...))
	}
	if lastEnd > 0 {
		ps.Completed = float64(ps.Succeeded) / (float64(lastEnd) / 1e9)
	}
	if ps.Succeeded > 0 {
		ps.CPUPerDecision = (cpu1 - cpu0) * 1e6 / float64(ps.Succeeded)
	}
	if o.traced {
		for _, f := range frames {
			if f.status != stOK || f.sendEnd == 0 {
				continue
			}
			id := o.tr.reserve()
			start, end := origin.Add(time.Duration(f.intended)), origin.Add(time.Duration(f.recv))
			sendStart, sendEnd := origin.Add(time.Duration(f.sent)), origin.Add(time.Duration(f.sendEnd))
			o.tr.add("moeclient.send", id, f.seq, sendStart, sendEnd, 0)
			o.tr.addWithID(id, "wire.frame", 0, f.seq, start, end, sendEnd.Sub(sendStart))
		}
	}
	return ps, nil
}

// passes reports whether a probe met the latency limit without failures,
// a growing backlog or a generator that fell behind.
func (ps *phaseStats) passes() bool {
	return ps.Failed == 0 && ps.Refused == 0 && ps.P99 <= wireP99Limit &&
		ps.TailP50 <= wireP99Limit && ps.LateP99 <= wireP99Limit/2
}

// scraper GETs /metrics once a second, as a Prometheus would, timing each.
type scraper struct {
	stop  chan struct{}
	done  chan struct{}
	ms    []float64
	bytes []float64
}

func startScraper(base string) *scraper {
	s := &scraper{stop: make(chan struct{}), done: make(chan struct{})}
	client := &http.Client{Timeout: 10 * time.Second}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				t0 := time.Now()
				_, n, err := scrapeMetrics(client, base)
				if err == nil {
					s.ms = append(s.ms, float64(time.Since(t0).Microseconds())/1e3)
					s.bytes = append(s.bytes, float64(n))
				}
			}
		}
	}()
	return s
}

func (s *scraper) finish() {
	close(s.stop)
	<-s.done
}

func runWireSteady(o *opts) (*outcome, error) {
	out := newOutcome()
	var setups []float64
	var rig *wireRig
	var gens []genStats
	for rep := 0; rep < wireSetupReps; rep++ {
		if rig != nil {
			rig.close()
		}
		t0 := time.Now()
		var err error
		if rig, err = setupWire(o); err != nil {
			return nil, err
		}
		setups = append(setups, since(t0))
		gens = append(gens, rig.gen)
	}
	defer rig.close()
	out.e2e["setup_s"] = median(setups)
	fillGenMetrics(out, gens)

	client := &http.Client{Timeout: 10 * time.Second}
	var pr probe
	if err := pr.begin(client, rig.d); err != nil {
		return nil, err
	}
	before := rig.decidedCounts()
	sc := startScraper(rig.d.base)
	var lows, highs, probes []*phaseStats
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		low, err := rig.drive(o, "low", int64(2*cycle), load{depth: wireLowDepth}, wireLowWindow)
		if err != nil {
			sc.finish()
			return nil, err
		}
		high, err := rig.drive(o, "high", int64(2*cycle+1), load{depth: wireHighDepth}, wireHighWindow)
		if err != nil {
			sc.finish()
			return nil, err
		}
		// Only the last high window's frames are kept (the traced run's
		// codec replay); the golden replay has already consumed them all.
		low.frames = nil
		if len(highs) > 0 {
			highs[len(highs)-1].frames = nil
		}
		lows, highs = append(lows, low), append(highs, high)
	}
	sc.finish()
	if err := pr.end(client, rig.d); err != nil {
		return nil, err
	}
	after := rig.decidedCounts()
	// The traced run also searches slo_rate_fps, after the windows and
	// outside the bracket, so both halves of a traced run measure the same
	// window sequence.
	st := &staircase{rate: wireProbeStart}
	for k := 0; o.traced && k < wireProbes; k++ {
		ps, err := rig.drive(o, "probe", int64(1_000_000+k), load{fps: st.rate}, wireProbeWindow)
		if err != nil {
			return nil, err
		}
		ps.frames = nil
		probes = append(probes, ps)
		st.step(ps.passes())
	}

	setLatencies(out, lows, highs)
	if o.traced {
		out.set("slo_rate_fps", st.estimate(), "frames/s")
	}
	out.e2e["peak_rss_mb"] = pr.ms1.MaxRSS / (1 << 20)
	for _, ps := range append(append([]*phaseStats(nil), lows...), highs...) {
		out.attempted += int64(ps.Sent)
		out.failed += int64(ps.Refused + ps.Failed)
	}
	phases := append(append(append([]*phaseStats(nil), lows...), highs...), probes...)
	out.report["phases"] = phases
	out.report["moed_flags"] = append([]string{"-checkpoint-dir", "<dir>", "-stream-addr", "<addr>"}, wireFlags...)
	out.report["p99_limit_ms"] = wireP99Limit
	out.report["connections"] = len(rig.conns)

	for _, m := range rig.mismatches {
		out.mismatch("%s", m)
	}

	if o.traced {
		wireLayers(o, out, rig, &pr, sc, phases, highs, before, after)
	}
	return out, nil
}

// soloTenant is one tenant's golden replay state.
type soloTenant struct {
	rt      *moe.Runtime
	decided int64       // decisions fed to rt so far
	pending []*frameRec // deadline-abandoned frames not yet placed
}

// check feeds a tenant's frames of one window, in send order, to its solo
// runtime: every served decision must match the solo replay, and the
// daemon's decision counter must count exactly the frames it decided. A
// frame abandoned at its deadline was decided if, and only if, the counter
// skipped over it.
func (r *wireRig) check(ti int, frames []*frameRec) {
	st := r.solo[ti]
	var seq []moe.Observation
	var served []*frameRec
	var at []int
	for _, f := range frames {
		if f.status != stOK {
			st.pending = append(st.pending, f)
			continue
		}
		switch skipped := int(f.decided-st.decided) - len(seq) - 1; {
		case skipped == len(st.pending):
			for _, g := range st.pending {
				seq = append(seq, g.obs)
			}
		case skipped != 0:
			r.mismatch("tenant %s: decision counter %d after %d decided frames (%d abandoned)",
				tenantID(ti), f.decided, st.decided+int64(len(seq)), len(st.pending))
			return
		}
		st.pending = st.pending[:0]
		at = append(at, len(seq))
		seq = append(seq, f.obs)
		served = append(served, f)
	}
	want := st.rt.DecideBatch(seq)
	st.decided += int64(len(seq))
	for i, f := range served {
		if want[at[i]] != f.threads {
			r.mismatch("tenant %s frame %d: served %d threads, solo replay %d", tenantID(ti), f.seq, f.threads, want[at[i]])
			return
		}
	}
}

// decidedCounts is each tenant's decision count as the golden replay has
// confirmed it.
func (r *wireRig) decidedCounts() []int64 {
	out := make([]int64, len(r.solo))
	for i, st := range r.solo {
		out[i] = st.decided
	}
	return out
}

// snapshotsCrossed counts the snapshot boundaries (every 64 decisions per
// tenant, moed's default -checkpoint-every) between two sets of counts.
func snapshotsCrossed(before, after []int64) float64 {
	var n int64
	for i := range before {
		n += after[i]/64 - before[i]/64
	}
	return float64(n)
}

func (r *wireRig) mismatch(format string, a ...any) {
	if len(r.mismatches) < 20 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, a...))
	}
}

// staircase searches the highest offered rate that passes: up after a
// passing probe, down after a failing one, with the step shrinking as the
// reversals accumulate.
type staircase struct {
	rate      float64
	reversals int
	last      int // +1 pass, -1 fail, 0 none yet
	fine      []float64
	all       []float64
}

func (s *staircase) step(pass bool) {
	dir := -1
	if pass {
		dir = 1
	}
	if s.last != 0 && dir != s.last {
		s.reversals++
	}
	s.last = dir
	s.all = append(s.all, s.rate)
	if s.reversals >= 3 {
		s.fine = append(s.fine, s.rate)
	}
	f := wireStep
	switch {
	case s.reversals == 0:
		f = wireStepFast
	case s.reversals < 3:
		f = wireStepMid
	}
	if pass {
		s.rate *= f
	} else {
		s.rate /= f
	}
}

// estimate is the geometric mean of the last half of the probe rates, but
// only of probes in the fine phase when there are any; a staircase that
// never failed reports its last rate.
func (s *staircase) estimate() float64 {
	list := s.all[len(s.all)/2:]
	if len(s.fine) > 0 && len(s.fine) < len(list) {
		list = s.fine
	}
	if len(list) == 0 {
		return s.rate
	}
	var logSum float64
	for _, r := range list {
		logSum += math.Log(r)
	}
	return math.Exp(logSum / float64(len(list)))
}

// quietest keeps the windows during which the hypervisor stole no more
// CPU time than it did in the median window. On a shared virtual machine
// stolen time comes in bursts, and a window it hits measures the host, not
// the program: in probes on a two-CPU guest, runs losing 4-9 s of 60 CPU
// seconds to steal read 30-100% slower than runs losing under 1 s.
func quietest(list []*phaseStats) []*phaseStats {
	st := make([]float64, len(list))
	for i, ps := range list {
		st[i] = ps.Steal
	}
	limit := median(st) + 1e-9
	var out []*phaseStats
	for _, ps := range list {
		if ps.Steal <= limit {
			out = append(out, ps)
		}
	}
	return out
}

// setLatencies reports each window figure as its median over the quietest
// windows of its level; CPU per decision comes from the high windows.
func setLatencies(out *outcome, lows, highs []*phaseStats) {
	lows, highs = quietest(lows), quietest(highs)
	out.report["windows_used"] = map[string]int{"low": len(lows), "high": len(highs)}
	med := func(list []*phaseStats, f func(*phaseStats) float64) float64 {
		v := make([]float64, len(list))
		for i, ps := range list {
			v[i] = f(ps)
		}
		return median(v)
	}
	p50 := func(ps *phaseStats) float64 { return ps.P50 }
	p99 := func(ps *phaseStats) float64 { return ps.P99 }
	out.e2e["p50_ms.low"], out.e2e["p99_ms.low"] = med(lows, p50), med(lows, p99)
	out.e2e["p50_ms.high"], out.e2e["p99_ms.high"] = med(highs, p50), med(highs, p99)
	out.e2e["decisions_per_s"] = med(highs, func(ps *phaseStats) float64 { return ps.Completed })
	out.e2e["cpu_us_per_decision"] = med(highs, func(ps *phaseStats) float64 { return ps.CPUPerDecision })
}

// fillGenMetrics reports the input generator's engine figures: the
// serving workloads run the simulator only there.
func fillGenMetrics(out *outcome, gens []genStats) {
	// Every set-up generates the same runs, so each run's cost is taken
	// as its cheapest of the set-ups: interference only ever slows a run.
	var total float64
	for i := range gens[0].runCPU {
		best := gens[0].runCPU[i]
		for _, g := range gens[1:] {
			best = min(best, g.runCPU[i])
		}
		total += best
	}
	out.e2e["scenarios_per_s"] = float64(len(gens[0].runCPU)) / total
	out.e2e["speedup_hmean"] = gens[0].speedupHM
	g := gens[len(gens)-1]
	out.set("sim.mixture_arm_s", g.mixtureArm, "s")
	out.set("sim.default_arm_s", g.defaultArm, "s")
	out.set("sim.decisions", float64(g.decisions), "count")
	out.report["generated"] = map[string]any{
		"scenario_runs": g.scenarios, "decisions": g.decisions, "batch_checked": g.fastChecked,
		"seconds": g.elapsed.Seconds(),
	}
}

// wireLayers fills the per-layer metrics of a traced wire-steady run.
func wireLayers(o *opts, out *outcome, r *wireRig, pr *probe, sc *scraper, phases, highs []*phaseStats, before, after []int64) {
	tr := o.tr
	out.set("moeclient.send_us.p50", tr.quantile("moeclient.send", 0.5)/1e3, "us")
	out.set("moeclient.send_us.p99", tr.quantile("moeclient.send", 0.99)/1e3, "us")
	var late []float64
	lateFrames := 0
	for _, ps := range phases {
		if ps.Depth == 0 {
			late = append(late, ps.LateP99)
		}
		lateFrames += ps.LateOver
	}
	out.set("gen.late_ms.p99", median(late), "ms")
	out.set("gen.late_frames", float64(lateFrames), "count")

	groups := delta(pr.m0, pr.m1, "serve_stream_coalesced_batch_count")
	framesIn := delta(pr.m0, pr.m1, "serve_stream_coalesced_batch_sum")
	out.set("serve.groups", groups, "count")
	if groups > 0 {
		out.set("serve.frames_per_group", framesIn/groups, "frames")
	}
	pr.serveLayers(out, delta(pr.m0, pr.m1, "serve_decisions_total"))
	out.set("checkpoint.snapshots", snapshotsCrossed(before, after), "count")
	out.set("telemetry.scrape_ms", median(append([]float64(nil), sc.ms...)), "ms")
	out.set("telemetry.scrape_bytes", median(append([]float64(nil), sc.bytes...)), "B")

	// Codec in isolation: the high phase's frames through internal/wire.
	codecLayer(out, highs[len(highs)-1].frames)
	// Decide in isolation: the tenants' streams through DecideBatch at the
	// observed group size.
	fpg := 1.0
	if groups > 0 {
		fpg = framesIn / groups
	}
	batchLayer(o, out, r.streams, fpg)
	journalLayer(o, out, r.streams, false, false)
}

// codecLayer times encoding and decoding each frame with internal/wire.
func codecLayer(out *outcome, frames []*frameRec) {
	if len(frames) == 0 {
		return
	}
	var buf []byte
	obs := make([]moe.Observation, 1)
	var d wire.Decide
	const reps = 5
	var encNs, decNs []float64
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		var total int
		for i, f := range frames {
			obs[0] = f.obs
			buf = wire.AppendDecide(buf[:0], uint64(i), 0, tenantID(f.tenant), "", obs)
			total += len(buf)
		}
		encNs = append(encNs, float64(time.Since(t0).Nanoseconds())/float64(len(frames)))
		// Decode: the frames back to back through a Reader.
		all := make([]byte, 0, total)
		for i, f := range frames {
			obs[0] = f.obs
			all = wire.AppendDecide(all, uint64(i), 0, tenantID(f.tenant), "", obs)
		}
		rd := wire.NewReader(bytes.NewReader(all))
		t1 := time.Now()
		for range frames {
			_, payload, _, err := rd.Next()
			if err != nil {
				out.mismatch("wire codec replay: %v", err)
				return
			}
			if err := wire.ParseDecide(payload, &d); err != nil {
				out.mismatch("wire codec replay: %v", err)
				return
			}
		}
		decNs = append(decNs, float64(time.Since(t1).Nanoseconds())/float64(len(frames)))
	}
	out.set("wire.encode_ns", median(encNs), "ns")
	out.set("wire.decode_ns", median(decNs), "ns")
}

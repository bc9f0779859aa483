package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"moe"
)

// json-durable: the write-heavy, synchronous-caller path. A primary moed
// fsyncs every journal append (-checkpoint-sync, no group-commit window)
// and ships every committed artifact to a -standby moed before it acks.
// Closed-loop HTTP/JSON clients send one observation per request with a
// unique X-Request-Id; a fixed share of requests are retries of the
// previous id, which must come back from the dedup window. The low level
// is one client, the high level two.
const (
	jsonTenants    = 16
	jsonPerTenant  = 8
	jsonRetryEvery = 8 // every 8th request of a client retries its previous id
	jsonSetupReps  = 3
	jsonDeadlineMs = 10000

	// One cycle is a one-client window then a two-client window; cycles
	// repeat until the run's time is spent, and each figure is a median
	// over the quietest windows (setLatencies). Windows hold about a
	// thousand requests.
	jsonLowWindow  = 800 * time.Millisecond
	jsonHighWindow = 600 * time.Millisecond
)

// jsonPrimaryFlags are the primary's flags beyond addresses and directories.
var jsonPrimaryFlags = []string{"-checkpoint-sync"}

type jsonRequest struct {
	tenant   int
	id       string
	num      uint64 // numeric part of id, the spans' request id
	obs      moe.Observation
	retry    bool
	start    time.Time
	end      time.Time
	status   int
	threads  []int
	decided  int64
	deduped  bool
	original *jsonRequest // for a retry: the request it repeats
}

type jsonRig struct {
	standby, primary *daemon
	pdir, sdir       string
	streams          []tenantStream
	cursors          []cursor
	sent             [][]*jsonRequest // per tenant, fresh requests in order
	client           *http.Client
	gen              genStats
	resumeMs         []float64
	nextID           int
}

func (r *jsonRig) close() {
	if r.primary != nil {
		r.primary.kill()
	}
	if r.standby != nil {
		r.standby.kill()
	}
	r.client.CloseIdleConnections()
	os.RemoveAll(r.pdir)
	os.RemoveAll(r.sdir)
}

func (r *jsonRig) startPrimary(o *opts) error {
	args := append([]string{"-checkpoint-dir", r.pdir, "-replicate-to", r.standby.base}, jsonPrimaryFlags...)
	d, err := startMoed(o.moed, false, args...)
	r.primary = d
	return err
}

// wireObs is an observation in moed's JSON request shape.
type wireObs struct {
	Time           float64   `json:"time"`
	Features       []float64 `json:"features"`
	Rate           float64   `json:"rate,omitempty"`
	RegionStart    bool      `json:"region_start,omitempty"`
	AvailableProcs int       `json:"available_procs,omitempty"`
}

type decideBody struct {
	Tenant       string    `json:"tenant"`
	Observations []wireObs `json:"observations"`
}

type decideReply struct {
	Threads   []int `json:"threads"`
	Decisions int64 `json:"decisions"`
	Deduped   bool  `json:"deduped"`
}

// post sends one request and fills its outcome; a traced run records the
// client-side spans.
func (r *jsonRig) post(o *opts, q *jsonRequest) error {
	q.start = time.Now()
	body := decideBody{Tenant: tenantID(q.tenant), Observations: []wireObs{{
		Time: q.obs.Time, Features: q.obs.Features[:], Rate: q.obs.Rate,
		RegionStart: q.obs.RegionStart, AvailableProcs: q.obs.AvailableProcs,
	}}}
	buf, err := json.Marshal(&body)
	if err != nil {
		return err
	}
	encEnd := time.Now()
	req, err := http.NewRequest(http.MethodPost, r.primary.base+"/v1/decide", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", q.id)
	req.Header.Set("X-Deadline-Ms", strconv.Itoa(jsonDeadlineMs))
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	httpEnd := time.Now()
	var rep decideReply
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("decoding reply (status %d): %w", resp.StatusCode, err)
	}
	q.end = time.Now()
	q.status, q.threads, q.decided, q.deduped = resp.StatusCode, rep.Threads, rep.Decisions, rep.Deduped
	if o.traced {
		id := o.tr.reserve()
		seq := q.num
		o.tr.add("json.encode", id, seq, q.start, encEnd, 0)
		o.tr.add("http.roundtrip", id, seq, encEnd, httpEnd, 0)
		o.tr.add("json.decode", id, seq, httpEnd, q.end, 0)
		o.tr.addWithID(id, "json.request", 0, seq, q.start, q.end, q.end.Sub(q.start))
	}
	return nil
}

func (r *jsonRig) fresh(ti int) *jsonRequest {
	r.nextID++
	return &jsonRequest{tenant: ti, num: uint64(r.nextID), id: fmt.Sprintf("r%d", r.nextID), obs: r.cursors[ti].take()}
}

// setupJSON generates inputs, starts the standby and the primary, warms
// every tenant, then drains the primary and restarts it on its own lineage:
// the first decision per tenant after the restart is checkpoint resume.
func setupJSON(o *opts) (*jsonRig, error) {
	streams, gst, err := genStreams(o.seed, jsonTenants, jsonPerTenant)
	if err != nil {
		return nil, err
	}
	r := &jsonRig{streams: streams, gen: gst,
		pdir:   o.newDir("primary"),
		sdir:   o.newDir("standby"),
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		sent:   make([][]*jsonRequest, jsonTenants),
	}
	r.cursors = make([]cursor, jsonTenants)
	for i := range r.cursors {
		r.cursors[i].s = &r.streams[i]
	}
	if r.standby, err = startMoed(o.moed, false, "-standby", "-checkpoint-dir", r.sdir); err != nil {
		return nil, err
	}
	if err := r.startPrimary(o); err != nil {
		r.close()
		return nil, err
	}
	warm := func(measure bool) error {
		for ti := 0; ti < jsonTenants; ti++ {
			q := r.fresh(ti)
			if err := r.post(o, q); err != nil {
				return err
			}
			if q.status != http.StatusOK {
				return fmt.Errorf("warm-up %s: status %d", tenantID(ti), q.status)
			}
			r.sent[ti] = append(r.sent[ti], q)
			if measure {
				r.resumeMs = append(r.resumeMs, float64(q.end.Sub(q.start).Microseconds())/1e3)
			}
		}
		return nil
	}
	if err := warm(false); err != nil {
		r.close()
		return nil, err
	}
	if err := r.primary.drain(20 * time.Second); err != nil {
		r.close()
		return nil, err
	}
	r.client.CloseIdleConnections()
	if err := r.startPrimary(o); err != nil {
		r.close()
		return nil, err
	}
	if err := warm(true); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// cpuSeconds is the CPU time of both daemons: a durable decision costs the
// primary's CPU and the standby's, which applies every shipped artifact
// before the primary acks.
func (r *jsonRig) cpuSeconds() (float64, error) {
	p, err := procCPUSeconds(r.primary.pid())
	if err != nil {
		return 0, err
	}
	s, err := procCPUSeconds(r.standby.pid())
	return p + s, err
}

// closedLoop runs `clients` synchronous clients for dur. Client c owns the
// tenants with index c mod clients, visited round-robin, so each tenant's
// requests stay in order.
func (r *jsonRig) closedLoop(o *opts, clients int, dur time.Duration) (*phaseStats, []*jsonRequest, error) {
	type clientState struct {
		reqs []*jsonRequest
		err  error
	}
	states := make([]clientState, clients)
	steal0 := stealSeconds()
	cpu0, err := r.cpuSeconds()
	if err != nil {
		return nil, nil, err
	}
	// Tenants are client-private, so only the request id counter is shared.
	var idMu sync.Mutex
	origin := time.Now()
	deadline := origin.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &states[c]
			var prev *jsonRequest
			k := 0
			for time.Now().Before(deadline) {
				var q *jsonRequest
				if prev != nil && k%jsonRetryEvery == jsonRetryEvery-1 {
					q = &jsonRequest{tenant: prev.tenant, num: prev.num, id: prev.id, obs: prev.obs, retry: true, original: prev}
				} else {
					ti := c + clients*(k%(jsonTenants/clients))
					idMu.Lock()
					q = r.fresh(ti)
					idMu.Unlock()
				}
				if err := r.post(o, q); err != nil {
					st.err = err
					return
				}
				st.reqs = append(st.reqs, q)
				if !q.retry {
					prev = q
				}
				k++
			}
		}(c)
	}
	wg.Wait()
	cpu1, err := r.cpuSeconds()
	if err != nil {
		return nil, nil, err
	}
	ps := &phaseStats{Name: fmt.Sprintf("clients-%d", clients), Seconds: dur.Seconds(), Steal: stealSeconds() - steal0}
	var all []*jsonRequest
	var lastEnd time.Time
	fresh := 0
	for c := range states {
		if states[c].err != nil {
			return nil, nil, states[c].err
		}
		all = append(all, states[c].reqs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start.Before(all[j].start) })
	for _, q := range all {
		ps.Sent++
		if q.status == http.StatusOK {
			ps.Succeeded++
			ps.lat = append(ps.lat, float64(q.end.Sub(q.start).Nanoseconds())/1e6)
			if !q.retry {
				fresh++
			}
		} else {
			ps.Failed++
		}
		if !q.retry {
			r.sent[q.tenant] = append(r.sent[q.tenant], q)
		}
		if q.end.After(lastEnd) {
			lastEnd = q.end
		}
	}
	ps.P50 = quantile(append([]float64(nil), ps.lat...), 0.5)
	ps.P99 = quantile(append([]float64(nil), ps.lat...), 0.99)
	ps.Completed = float64(fresh) / lastEnd.Sub(origin).Seconds()
	if fresh > 0 {
		ps.CPUPerDecision = (cpu1 - cpu0) * 1e6 / float64(fresh)
	}
	return ps, all, nil
}

func runJSONDurable(o *opts) (*outcome, error) {
	out := newOutcome()
	var setups []float64
	var gens []genStats
	var rig *jsonRig
	for rep := 0; rep < jsonSetupReps; rep++ {
		if rig != nil {
			rig.close()
		}
		t0 := time.Now()
		var err error
		if rig, err = setupJSON(o); err != nil {
			return nil, err
		}
		setups = append(setups, since(t0))
		gens = append(gens, rig.gen)
	}
	defer rig.close()
	out.e2e["setup_s"] = median(setups)
	fillGenMetrics(out, gens)

	scrapeClient := &http.Client{Timeout: 10 * time.Second}
	var pr probe
	if err := pr.begin(scrapeClient, rig.primary); err != nil {
		return nil, err
	}
	before := rig.ackedCounts()
	sc := startScraper(rig.primary.base)
	var lows, highs []*phaseStats
	var reqs []*jsonRequest
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		low, lr, err := rig.closedLoop(o, 1, jsonLowWindow)
		if err != nil {
			sc.finish()
			return nil, err
		}
		high, hr, err := rig.closedLoop(o, 2, jsonHighWindow)
		if err != nil {
			sc.finish()
			return nil, err
		}
		lows, highs = append(lows, low), append(highs, high)
		reqs = append(append(reqs, lr...), hr...)
	}
	sc.finish()
	if err := pr.end(scrapeClient, rig.primary); err != nil {
		return nil, err
	}
	setLatencies(out, lows, highs)
	out.e2e["peak_rss_mb"] = pr.ms1.MaxRSS / (1 << 20)

	for _, ps := range append(append([]*phaseStats(nil), lows...), highs...) {
		out.attempted += int64(ps.Sent)
		out.failed += int64(ps.Failed)
	}
	out.report["phases"] = append(append([]*phaseStats(nil), lows...), highs...)
	out.report["moed_flags"] = map[string]any{
		"primary": append([]string{"-checkpoint-dir", "<dir>", "-replicate-to", "<standby>"}, jsonPrimaryFlags...),
		"standby": []string{"-standby", "-checkpoint-dir", "<dir>"},
	}

	// Correctness: retries answered from the dedup window with the original
	// threads; every fresh decision equal to a solo replay; after a drain,
	// the standby's lineage resumes at exactly the acked count per tenant.
	retries := 0
	for _, q := range reqs {
		if !q.retry || q.status != http.StatusOK {
			continue
		}
		retries++
		if !q.deduped || !equalInts(q.threads, q.original.threads) {
			out.mismatch("retry %s: deduped=%v threads %v, original %v", q.id, q.deduped, q.threads, q.original.threads)
		}
	}
	out.report["retries_checked"] = retries
	acked := rig.golden(out)
	if err := rig.primary.drain(20 * time.Second); err != nil {
		return nil, err
	}
	rig.checkStandby(out, acked)

	if o.traced {
		jsonLayers(o, out, rig, &pr, sc, before)
	}
	return out, nil
}

// ackedCounts is each tenant's count of fresh requests sent so far.
func (r *jsonRig) ackedCounts() []int64 {
	out := make([]int64, len(r.sent))
	for i, list := range r.sent {
		out[i] = int64(len(list))
	}
	return out
}

// golden replays every tenant's fresh requests on a solo runtime and
// returns the acked decision count per tenant.
func (r *jsonRig) golden(out *outcome) []int64 {
	acked := make([]int64, jsonTenants)
	for ti, list := range r.sent {
		var seq []moe.Observation
		var served []*jsonRequest
		for _, q := range list {
			if q.status != http.StatusOK {
				out.mismatch("tenant %s: request %s failed with status %d; replay is ambiguous", tenantID(ti), q.id, q.status)
				return acked
			}
			seq = append(seq, q.obs)
			served = append(served, q)
			if q.decided != int64(len(seq)) {
				out.mismatch("tenant %s request %s: decision counter %d, want %d", tenantID(ti), q.id, q.decided, len(seq))
			}
		}
		want, err := solo(seq)
		if err != nil {
			out.mismatch("solo runtime: %v", err)
			return acked
		}
		for i, q := range served {
			if len(q.threads) != 1 || q.threads[0] != want[i] {
				out.mismatch("tenant %s decision %d: served %v, solo replay %d", tenantID(ti), i, q.threads, want[i])
				break
			}
		}
		acked[ti] = int64(len(seq))
	}
	return acked
}

// checkStandby promotes the standby and compares every tenant's resumed
// decision count with what the primary acked.
func (r *jsonRig) checkStandby(out *outcome, acked []int64) {
	resp, err := r.client.Post(r.standby.base+"/v1/promote", "application/json", nil)
	if err != nil {
		out.mismatch("promote standby: %v", err)
		return
	}
	defer resp.Body.Close()
	var rep struct {
		Tenants []struct {
			ID        string `json:"id"`
			Decisions int64  `json:"decisions"`
			Err       string `json:"err"`
		} `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil || resp.StatusCode != http.StatusOK {
		out.mismatch("promote standby: status %d: %v", resp.StatusCode, err)
		return
	}
	got := map[string]int64{}
	for _, t := range rep.Tenants {
		if t.Err != "" {
			out.mismatch("standby tenant %s: %s", t.ID, t.Err)
		}
		got[t.ID] = t.Decisions
	}
	for ti, n := range acked {
		if got[tenantID(ti)] != n {
			out.mismatch("standby tenant %s resumed at %d decisions, primary acked %d", tenantID(ti), got[tenantID(ti)], n)
		}
	}
	out.report["standby_tenants_checked"] = len(acked)
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// jsonLayers fills the per-layer metrics of a traced json-durable run.
func jsonLayers(o *opts, out *outcome, r *jsonRig, pr *probe, sc *scraper, before []int64) {
	tr := o.tr
	out.set("http.roundtrip_ms.p50", tr.quantile("http.roundtrip", 0.5)/1e6, "ms")
	out.set("http.roundtrip_ms.p99", tr.quantile("http.roundtrip", 0.99)/1e6, "ms")
	out.set("json.codec_us", (tr.mean("json.encode")+tr.mean("json.decode"))/1e3, "us")
	out.set("serve.request_ms.p50", histQuantile(pr.m0, pr.m1, "serve_request_seconds", 0.5)*1e3, "ms")
	out.set("serve.request_ms.p99", histQuantile(pr.m0, pr.m1, "serve_request_seconds", 0.99)*1e3, "ms")
	out.set("replica.flush_ms.p50", histQuantile(pr.m0, pr.m1, "replica_flush_seconds", 0.5)*1e3, "ms")
	out.set("replica.flush_ms.p99", histQuantile(pr.m0, pr.m1, "replica_flush_seconds", 0.99)*1e3, "ms")
	if n := delta(pr.m0, pr.m1, "replica_group_bytes_count"); n > 0 {
		out.set("replica.bytes_per_group", delta(pr.m0, pr.m1, "replica_group_bytes_sum")/n, "B")
	}
	out.set("replica.ship_errors", pr.m1.sumFamily("replica_ship_errors_total")-pr.m0.sumFamily("replica_ship_errors_total"), "count")
	decisions := delta(pr.m0, pr.m1, "serve_decisions_total")
	pr.serveLayers(out, decisions)
	out.set("serve.groups", decisions, "count") // one request, one DecideBatch
	out.set("serve.frames_per_group", 1, "frames")
	out.set("checkpoint.resume_ms", median(append([]float64(nil), r.resumeMs...)), "ms")
	out.set("telemetry.scrape_ms", median(append([]float64(nil), sc.ms...)), "ms")
	out.set("telemetry.scrape_bytes", median(append([]float64(nil), sc.bytes...)), "B")
	batchLayer(o, out, r.streams, 1)
	journalLayer(o, out, r.streams, true, true)
	out.set("checkpoint.snapshots", snapshotsCrossed(before, r.ackedCounts()), "count")
}

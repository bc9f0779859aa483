package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"moe"
	"moe/internal/experiments"
	"moe/internal/features"
	"moe/internal/serve"
	"moe/moeclient"
)

// The stream study: the same fixed workload — eight tenants, each a strict
// sequence of small decide batches — pushed through every transport the
// daemon speaks, on otherwise identical servers. The committed evidence
// (BENCH_PR10.json) reports decisions/sec per transport and the speedup of
// the pipelined wire protocol over one-request-per-batch JSON, plus a separate durability phase measuring what journal
// group commit buys when every append must be fsynced. Every arm's served
// threads are replayed against solo runtimes; a mismatch is a hard failure,
// because a transport that is fast but wrong certifies nothing.

type streamOpts struct {
	Tenants         int // concurrent tenant streams
	Batch           int // observations per frame/request
	FramesPerTenant int // frames in each tenant's sequence (transport phase)
	NDJSONLines     int // frames folded into one NDJSON request
	FlushEvery      int // wire client: frames queued between flushes
	GCFrames        int // frames per tenant in the group-commit phase
	GCWindow        time.Duration
}

func defaultStreamOpts() streamOpts {
	return streamOpts{
		Tenants:         8,
		Batch:           4,
		FramesPerTenant: 512,
		NDJSONLines:     64,
		FlushEvery:      16,
		GCFrames:        96,
		GCWindow:        time.Millisecond,
	}
}

type streamArm struct {
	Transport       string  `json:"transport"`
	Decisions       int64   `json:"decisions"`
	ElapsedSec      float64 `json:"elapsed_sec"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	SpeedupVsJSON   float64 `json:"speedup_vs_json"`
	// Coalescing evidence (wire arms): served groups and mean frames merged
	// per DecideBatch, from the serve_stream_coalesced_batch histogram.
	CoalescedGroups int64   `json:"coalesced_groups,omitempty"`
	MeanCoalesce    float64 `json:"mean_frames_per_group,omitempty"`
}

type streamGCArm struct {
	WindowMs        float64 `json:"window_ms"`
	Decisions       int64   `json:"decisions"`
	ElapsedSec      float64 `json:"elapsed_sec"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	// Fsyncs is counted by the group committer: one per committed group
	// with the window closed, shared across tenants with it open.
	Fsyncs         int64 `json:"fsyncs"`
	FsyncsSaved    int64 `json:"fsyncs_saved"`
	ResumeVerified int   `json:"resume_verified_tenants"`
}

type streamReport struct {
	Tenants         int   `json:"tenants"`
	Batch           int   `json:"batch"`
	FramesPerTenant int   `json:"frames_per_tenant"`
	DecisionsPerArm int64 `json:"decisions_per_arm"`

	Arms []streamArm `json:"arms"`

	SpeedupWireVsJSON float64 `json:"speedup_wire_vs_json"`

	GoldenTenantsChecked int `json:"golden_tenants_checked"`
	GoldenMismatches     int `json:"golden_mismatches"`

	GroupCommit []streamGCArm `json:"group_commit"`

	Notes []string `json:"notes"`
}

// streamObsNative is soloServeThreads' stream in runtime form — the wire
// arms encode observations directly instead of via JSON maps.
func streamObsNative(seed, k int) moe.Observation {
	var f moe.Features
	for j := range f {
		f[j] = 0.15*float64(j+1) + 0.02*float64((k*7+j*3+seed)%11)
	}
	f[features.Processors] = throughputMaxThreads
	return moe.Observation{
		Time:           0.25 * float64(k),
		Features:       f,
		RegionStart:    k%4 == 0,
		Rate:           100 + float64(seed%13),
		AvailableProcs: throughputMaxThreads,
	}
}

func streamTenantID(i int) string { return fmt.Sprintf("stream-%03d", i) }

// startStreamServer brings up one in-process daemon for an arm and returns
// its base URL plus a shutdown func.
func startStreamServer(cfg serve.Config) (*serve.Server, string, func(), error) {
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, "", nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	stop := func() {
		httpSrv.Close()
		srv.Close()
	}
	return srv, "http://" + ln.Addr().String(), stop, nil
}

func streamServeConfig(opts streamOpts) serve.Config {
	return serve.Config{
		MaxThreads:      throughputMaxThreads,
		MaxInflight:     opts.Tenants*opts.FramesPerTenant + 64,
		DefaultDeadline: 20 * time.Second,
		DrainWindow:     20 * time.Second,
		Logf:            func(string, ...any) {},
	}
}

// armResult carries one transport arm's timing and per-tenant served
// threads for the golden replay.
type armResult struct {
	elapsed time.Duration
	threads [][]int
	errs    []string
}

// runArmWorkers runs one goroutine per tenant and times the whole fleet.
func runArmWorkers(tenants int, work func(ti int) ([]int, error)) *armResult {
	res := &armResult{threads: make([][]int, tenants)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			got, err := work(ti)
			mu.Lock()
			defer mu.Unlock()
			res.threads[ti] = got
			if err != nil {
				res.errs = append(res.errs, fmt.Sprintf("tenant %s: %v", streamTenantID(ti), err))
			}
		}(ti)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// runJSONArm is the baseline: one HTTP request per batch, keep-alive
// connections, strictly sequential per tenant.
func runJSONArm(base string, opts streamOpts) *armResult {
	transport := &http.Transport{MaxIdleConnsPerHost: opts.Tenants + 2}
	defer transport.CloseIdleConnections()
	return runArmWorkers(opts.Tenants, func(ti int) ([]int, error) {
		id := streamTenantID(ti)
		cl := &serveClient{base: base, client: &http.Client{Timeout: 30 * time.Second, Transport: transport}}
		seed := tenantSeed(id)
		var got []int
		for f := 0; f < opts.FramesPerTenant; f++ {
			status, resp, err := cl.post(id, seed, f*opts.Batch, opts.Batch, 20000)
			if err != nil {
				return got, err
			}
			if status != http.StatusOK {
				return got, fmt.Errorf("frame %d: status %d (%s)", f, status, resp.Code)
			}
			got = append(got, resp.Threads...)
		}
		return got, nil
	})
}

// runNDJSONArm folds frames into NDJSON bodies: fewer requests, same
// sequential per-line decide on the server.
func runNDJSONArm(base string, opts streamOpts) *armResult {
	transport := &http.Transport{MaxIdleConnsPerHost: opts.Tenants + 2}
	defer transport.CloseIdleConnections()
	return runArmWorkers(opts.Tenants, func(ti int) ([]int, error) {
		id := streamTenantID(ti)
		cl := &http.Client{Timeout: 60 * time.Second, Transport: transport}
		seed := tenantSeed(id)
		var got []int
		for f := 0; f < opts.FramesPerTenant; f += opts.NDJSONLines {
			lines := opts.NDJSONLines
			if f+lines > opts.FramesPerTenant {
				lines = opts.FramesPerTenant - f
			}
			var body bytes.Buffer
			enc := json.NewEncoder(&body)
			for l := 0; l < lines; l++ {
				obs := make([]map[string]any, opts.Batch)
				for i := range obs {
					obs[i] = serveObservation(seed, (f+l)*opts.Batch+i)
				}
				if err := enc.Encode(map[string]any{"tenant": id, "observations": obs}); err != nil {
					return got, err
				}
			}
			req, err := http.NewRequest(http.MethodPost, base+"/v1/decide", &body)
			if err != nil {
				return got, err
			}
			req.Header.Set("Content-Type", "application/x-ndjson")
			req.Header.Set("X-Deadline-Ms", strconv.Itoa(20000))
			resp, err := cl.Do(req)
			if err != nil {
				return got, err
			}
			dec := json.NewDecoder(resp.Body)
			for l := 0; l < lines; l++ {
				var line serveWireResp
				if err := dec.Decode(&line); err != nil {
					resp.Body.Close()
					return got, fmt.Errorf("request at frame %d line %d: %v", f, l, err)
				}
				if line.Code != "" {
					resp.Body.Close()
					return got, fmt.Errorf("request at frame %d line %d: %s", f, l, line.Code)
				}
				got = append(got, line.Threads...)
			}
			resp.Body.Close()
		}
		return got, nil
	})
}

// runWireArm drives one pipelined wire session per tenant: a writer pushes
// the whole frame sequence (flushing every FlushEvery frames) while a
// reader collects responses, so the server's coalescer sees real depth.
func runWireArm(base string, opts streamOpts, frames int) *armResult {
	return runArmWorkers(opts.Tenants, func(ti int) ([]int, error) {
		id := streamTenantID(ti)
		seed := tenantSeed(id)
		c, err := moeclient.DialHTTP(base, 5*time.Second)
		if err != nil {
			return nil, err
		}
		defer c.Close()

		type recvOut struct {
			threads []int
			err     error
		}
		done := make(chan recvOut, 1)
		go func() {
			var got []int
			for f := 0; f < frames; f++ {
				resp, err := c.Recv()
				if err != nil {
					done <- recvOut{got, fmt.Errorf("recv frame %d: %v", f, err)}
					return
				}
				if resp.Err != nil {
					done <- recvOut{got, fmt.Errorf("frame %d refused: %v", f, resp.Err)}
					return
				}
				if resp.Seq != uint64(f) {
					done <- recvOut{got, fmt.Errorf("frame %d: response seq %d out of order", f, resp.Seq)}
					return
				}
				got = append(got, resp.Threads...)
			}
			done <- recvOut{got, nil}
		}()

		obs := make([]moe.Observation, opts.Batch)
		for f := 0; f < frames; f++ {
			for i := range obs {
				obs[i] = streamObsNative(seed, f*opts.Batch+i)
			}
			if err := c.Send(uint64(f), 0, id, "", obs); err != nil {
				return nil, fmt.Errorf("send frame %d: %v", f, err)
			}
			if (f+1)%opts.FlushEvery == 0 {
				if err := c.Flush(); err != nil {
					return nil, fmt.Errorf("flush at frame %d: %v", f, err)
				}
			}
		}
		if err := c.Flush(); err != nil {
			return nil, fmt.Errorf("final flush: %v", err)
		}
		out := <-done
		return out.threads, out.err
	})
}

// coalesceStats reads the serve_stream_coalesced_batch histogram back out
// of the Prometheus exposition: groups served and frames merged.
func coalesceStats(srv *serve.Server) (groups int64, frames int64) {
	var buf bytes.Buffer
	if err := srv.Registry().WritePrometheus(&buf); err != nil {
		return 0, 0
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "serve_stream_coalesced_batch_count "); ok {
			if n, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
				groups = int64(n)
			}
		}
		if v, ok := strings.CutPrefix(line, "serve_stream_coalesced_batch_sum "); ok {
			if n, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
				frames = int64(n)
			}
		}
	}
	return groups, frames
}

// runStreamGC is one durability arm: checkpoint-sync on, pipelined wire
// load, then drain and a cold restart proving every tenant's acked count
// survived — group commit must never trade away commit-before-ack.
func runStreamGC(opts streamOpts, window time.Duration) (*streamGCArm, []string, error) {
	root, err := os.MkdirTemp("", "moed-stream-gc-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(root)

	cfg := streamServeConfig(opts)
	cfg.CheckpointRoot = root
	cfg.CheckpointSync = true
	cfg.GroupCommitWindow = window
	cfg.CheckpointEvery = 1 << 20 // journal-only: isolate append fsyncs

	srv, base, stop, err := startStreamServer(cfg)
	if err != nil {
		return nil, nil, err
	}
	res := runWireArm(base, opts, opts.GCFrames)
	arm := &streamGCArm{
		WindowMs:   float64(window) / float64(time.Millisecond),
		ElapsedSec: res.elapsed.Seconds(),
	}
	for _, ths := range res.threads {
		arm.Decisions += int64(len(ths))
	}
	arm.DecisionsPerSec = float64(arm.Decisions) / res.elapsed.Seconds()
	arm.Fsyncs, arm.FsyncsSaved = srv.GroupCommitStats()
	notes := res.errs
	if drep, err := srv.Drain(cfg.DrainWindow); err != nil || !drep.Clean() {
		notes = append(notes, fmt.Sprintf("gc window %s: drain not clean (err=%v)", window, err))
	}
	stop()

	// Cold restart on the drained lineage: one more frame per tenant must
	// resume at exactly the acked count.
	_, base2, stop2, err := startStreamServer(cfg)
	if err != nil {
		return arm, notes, err
	}
	defer stop2()
	c, err := moeclient.DialHTTP(base2, 5*time.Second)
	if err != nil {
		return arm, append(notes, fmt.Sprintf("gc window %s: restart dial: %v", window, err)), nil
	}
	defer c.Close()
	for ti := 0; ti < opts.Tenants; ti++ {
		id := streamTenantID(ti)
		seed := tenantSeed(id)
		n := opts.GCFrames * opts.Batch
		obs := make([]moe.Observation, opts.Batch)
		for i := range obs {
			obs[i] = streamObsNative(seed, n+i)
		}
		resp, err := c.Do(uint64(1000+ti), 0, id, "", obs)
		if err != nil || resp.Err != nil {
			notes = append(notes, fmt.Sprintf("gc window %s: tenant %s restart decide failed: %v/%v", window, id, err, resp))
			continue
		}
		if resp.Decisions != int64(n+opts.Batch) {
			notes = append(notes, fmt.Sprintf("gc window %s: tenant %s resumed decisions=%d, want %d", window, id, resp.Decisions, n+opts.Batch))
			continue
		}
		arm.ResumeVerified++
	}
	return arm, notes, nil
}

// runStream is the whole study.
func runStream(opts streamOpts) (*streamReport, error) {
	rep := &streamReport{
		Tenants:         opts.Tenants,
		Batch:           opts.Batch,
		FramesPerTenant: opts.FramesPerTenant,
		DecisionsPerArm: int64(opts.Tenants * opts.FramesPerTenant * opts.Batch),
	}

	// Solo ground truth, shared by every arm's golden check.
	want := make([][]int, opts.Tenants)
	for ti := range want {
		ths, err := soloServeThreads(streamTenantID(ti), opts.FramesPerTenant*opts.Batch)
		if err != nil {
			return nil, err
		}
		want[ti] = ths
	}
	golden := func(transport string, res *armResult) {
		for _, e := range res.errs {
			rep.Notes = append(rep.Notes, transport+": "+e)
			rep.GoldenMismatches++
		}
		for ti, got := range res.threads {
			rep.GoldenTenantsChecked++
			match := len(got) == len(want[ti])
			for i := 0; match && i < len(got); i++ {
				match = got[i] == want[ti][i]
			}
			if !match {
				rep.GoldenMismatches++
				rep.Notes = append(rep.Notes, fmt.Sprintf("%s: tenant %s threads diverge from solo replay (%d served, %d expected)",
					transport, streamTenantID(ti), len(got), len(want[ti])))
			}
		}
	}

	type armRun struct {
		transport   string
		run         func(base string) *armResult
		wantCoalesc bool
	}
	arms := []armRun{
		{"json", func(base string) *armResult { return runJSONArm(base, opts) }, false},
		{"ndjson", func(base string) *armResult { return runNDJSONArm(base, opts) }, false},
		{"wire", func(base string) *armResult { return runWireArm(base, opts, opts.FramesPerTenant) }, true},
	}
	var jsonDPS float64
	for _, a := range arms {
		srv, base, stop, err := startStreamServer(streamServeConfig(opts))
		if err != nil {
			return nil, err
		}
		res := a.run(base)
		arm := streamArm{Transport: a.transport, ElapsedSec: res.elapsed.Seconds()}
		for _, ths := range res.threads {
			arm.Decisions += int64(len(ths))
		}
		arm.DecisionsPerSec = float64(arm.Decisions) / res.elapsed.Seconds()
		if a.wantCoalesc {
			groups, frames := coalesceStats(srv)
			arm.CoalescedGroups = groups
			if groups > 0 {
				arm.MeanCoalesce = float64(frames) / float64(groups)
			}
		}
		golden(a.transport, res)
		stop()
		if a.transport == "json" {
			jsonDPS = arm.DecisionsPerSec
		}
		if jsonDPS > 0 {
			arm.SpeedupVsJSON = arm.DecisionsPerSec / jsonDPS
		}
		rep.Arms = append(rep.Arms, arm)
		if a.transport == "wire" {
			rep.SpeedupWireVsJSON = arm.SpeedupVsJSON
		}
	}

	// Durability phase: one fsync per committed group vs one shared across
	// tenants inside the window.
	for _, window := range []time.Duration{0, opts.GCWindow} {
		arm, notes, err := runStreamGC(opts, window)
		if err != nil {
			return nil, err
		}
		rep.Notes = append(rep.Notes, notes...)
		rep.GroupCommit = append(rep.GroupCommit, *arm)
	}

	rep.Notes = append(rep.Notes,
		fmt.Sprintf("identical workload per arm: %d tenants x %d frames x %d obs, served threads golden-checked against solo runtimes",
			opts.Tenants, opts.FramesPerTenant, opts.Batch),
		fmt.Sprintf("wire transport sustains %.1fx the JSON baseline", rep.SpeedupWireVsJSON))
	return rep, nil
}

func streamTable(rep *streamReport) *experiments.Table {
	t := &experiments.Table{
		Title:   "Streaming wire protocol — decisions/sec by transport on an identical workload",
		Columns: []string{"value"},
		Notes:   rep.Notes,
	}
	for _, a := range rep.Arms {
		t.AddRow(a.Transport+" decisions/sec", a.DecisionsPerSec)
	}
	t.AddRow("wire speedup vs json", rep.SpeedupWireVsJSON)
	t.AddRow("golden mismatches", float64(rep.GoldenMismatches))
	for _, g := range rep.GroupCommit {
		t.AddRow(fmt.Sprintf("sync decisions/sec (window %.1fms)", g.WindowMs), g.DecisionsPerSec)
		t.AddRow(fmt.Sprintf("journal fsyncs (window %.1fms)", g.WindowMs), float64(g.Fsyncs))
	}
	return t
}

// driveStream is the -stream-drive client mode behind scripts/stream_smoke.sh:
// it splits total decisions across tenant wire sessions against an external
// moed, requires every tenant's decision counters to count up contiguously
// from base (the resume proof after a restart), and prints a JSON summary.
func driveStream(target string, tenants, decisions, base int) error {
	opts := defaultStreamOpts()
	frames := decisions / (tenants * opts.Batch)
	if frames < 1 {
		frames = 1
	}
	dial := func() (*moeclient.Client, error) {
		if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") {
			return moeclient.DialHTTP(target, 5*time.Second)
		}
		return moeclient.Dial(target, 5*time.Second)
	}
	perTenant := make([]int64, tenants)
	var mu sync.Mutex
	errs := []string{} // non-nil: the smoke script reads it as a JSON array
	var wg sync.WaitGroup
	start := time.Now()
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			fail := func(format string, a ...any) {
				mu.Lock()
				errs = append(errs, fmt.Sprintf("tenant %s: ", streamTenantID(ti))+fmt.Sprintf(format, a...))
				mu.Unlock()
			}
			id := streamTenantID(ti)
			seed := tenantSeed(id)
			c, err := dial()
			if err != nil {
				fail("dial: %v", err)
				return
			}
			defer c.Close()
			done := make(chan error, 1)
			go func() {
				for f := 0; f < frames; f++ {
					resp, err := c.Recv()
					if err != nil {
						done <- fmt.Errorf("recv frame %d: %v", f, err)
						return
					}
					if resp.Err != nil {
						done <- fmt.Errorf("frame %d refused: %v", f, resp.Err)
						return
					}
					want := int64(base + (f+1)*opts.Batch)
					if resp.Decisions != want {
						done <- fmt.Errorf("frame %d acked decisions=%d, want %d", f, resp.Decisions, want)
						return
					}
					perTenant[ti] = resp.Decisions
				}
				done <- nil
			}()
			obs := make([]moe.Observation, opts.Batch)
			for f := 0; f < frames; f++ {
				for i := range obs {
					obs[i] = streamObsNative(seed, base+f*opts.Batch+i)
				}
				if err := c.Send(uint64(f), 0, id, "", obs); err != nil {
					fail("send frame %d: %v", f, err)
					return
				}
				if (f+1)%opts.FlushEvery == 0 {
					if err := c.Flush(); err != nil {
						fail("flush at frame %d: %v", f, err)
						return
					}
				}
			}
			if err := c.Flush(); err != nil {
				fail("final flush: %v", err)
				return
			}
			if err := <-done; err != nil {
				fail("%v", err)
			}
		}(ti)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var acked int64
	for _, n := range perTenant {
		acked += n - int64(base)
	}
	out, _ := json.Marshal(map[string]any{
		"tenants":           tenants,
		"frames_per_tenant": frames,
		"batch":             opts.Batch,
		"decisions_acked":   acked,
		"decisions_per_sec": float64(acked) / elapsed.Seconds(),
		"per_tenant":        perTenant,
		"errors":            errs,
	})
	fmt.Println(string(out))
	if len(errs) > 0 {
		return fmt.Errorf("%d tenant streams failed (first: %s)", len(errs), errs[0])
	}
	return nil
}

// writeStreamJSON runs the study and writes the committed artifact
// (BENCH_PR10.json). The 5x bar and the golden replay are hard failures:
// the artifact must never certify a transport that is slow or wrong.
func writeStreamJSON(path string) error {
	rep, err := runStream(defaultStreamOpts())
	if err != nil {
		return err
	}
	if rep.GoldenMismatches > 0 {
		return fmt.Errorf("transport equivalence violated: %d golden mismatches", rep.GoldenMismatches)
	}
	if rep.SpeedupWireVsJSON < 5 {
		return fmt.Errorf("wire+coalescing speedup %.2fx below the 5x bar", rep.SpeedupWireVsJSON)
	}
	for _, g := range rep.GroupCommit {
		if g.ResumeVerified != rep.Tenants {
			return fmt.Errorf("group commit (window %.1fms): only %d/%d tenants resumed intact", g.WindowMs, g.ResumeVerified, rep.Tenants)
		}
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "moebench: stream %d tenants x %d frames x %d obs: wire %.1fx json (golden %d/0 mismatches), wrote %s\n",
		rep.Tenants, rep.FramesPerTenant, rep.Batch, rep.SpeedupWireVsJSON, rep.GoldenTenantsChecked, path)
	return nil
}

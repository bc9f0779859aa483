package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"moe"
	"moe/internal/experiments"
	"moe/internal/serve"
	"moe/moeclient"
)

// The stream study: the same fixed workload — eight tenants, each a strict
// sequence of small decide batches — pushed through every transport the
// daemon speaks, on otherwise identical servers. It reports decisions/sec
// per transport and the speedup of the pipelined wire protocol over
// one-request-per-batch JSON, plus a durability phase measuring what
// journal group commit buys when every append must be fsynced. The gate:
// every arm's served threads match solo runtimes (a transport that is fast
// but wrong certifies nothing), wire holds the 5x bar, and every
// group-commit arm resumes every tenant at its acked count.

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
	Transport       string
	DecisionsPerSec float64
}

type streamGCArm struct {
	WindowMs        float64
	DecisionsPerSec float64
	// Fsyncs is counted by the group committer: one per committed group
	// with the window closed, shared across tenants with it open.
	Fsyncs         int64
	ResumeVerified int
}

type streamReport struct {
	Tenants           int
	Arms              []streamArm
	SpeedupWireVsJSON float64
	GoldenMismatches  int
	GroupCommit       []streamGCArm
	Notes             []string
}

// check is the study's gate: every transport golden-exact, wire with
// coalescing at least 5x the JSON baseline, and group commit never trading
// away commit-before-ack.
func (r *streamReport) check() error {
	var errs []error
	if r.GoldenMismatches > 0 {
		errs = append(errs, fmt.Errorf("transport equivalence violated: %d golden mismatches", r.GoldenMismatches))
	}
	if r.SpeedupWireVsJSON < 5 {
		errs = append(errs, fmt.Errorf("wire+coalescing speedup %.2fx below the 5x bar", r.SpeedupWireVsJSON))
	}
	for _, g := range r.GroupCommit {
		if g.ResumeVerified != r.Tenants {
			errs = append(errs, fmt.Errorf("group commit (window %.1fms): only %d/%d tenants resumed intact", g.WindowMs, g.ResumeVerified, r.Tenants))
		}
	}
	return errors.Join(errs...)
}

func streamTenantID(i int) string { return fmt.Sprintf("stream-%03d", i) }

func streamServeConfig(opts streamOpts) serve.Config {
	return serve.Config{
		MaxThreads:      studyMaxThreads,
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

// perSec is the arm's served decisions per wall second.
func (r *armResult) perSec() float64 {
	n := 0
	for _, ths := range r.threads {
		n += len(ths)
	}
	return float64(n) / r.elapsed.Seconds()
}

// runJSONArm is the baseline: one HTTP request per batch, keep-alive
// connections, strictly sequential per tenant.
func runJSONArm(base string, opts streamOpts) *armResult {
	transport := &http.Transport{MaxIdleConnsPerHost: opts.Tenants + 2}
	defer transport.CloseIdleConnections()
	return runArmWorkers(opts.Tenants, func(ti int) ([]int, error) {
		id := streamTenantID(ti)
		cl := &serveClient{base: base, client: &http.Client{Timeout: 30 * time.Second, Transport: transport}}
		var got []int
		for f := 0; f < opts.FramesPerTenant; f++ {
			status, resp, err := cl.post(id, f*opts.Batch, opts.Batch, 20000, "")
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
				line := jsonRequest{Tenant: id, Observations: jsonBatch(seed, (f+l)*opts.Batch, opts.Batch)}
				if err := enc.Encode(line); err != nil {
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

		if err := sendFrames(c, id, 0, frames, opts); err != nil {
			return nil, err
		}
		out := <-done
		return out.threads, out.err
	})
}

// sendFrames pipelines a tenant's stream as frames [0, frames) of
// opts.Batch observations each, starting at observation base, flushing
// every opts.FlushEvery frames and once at the end.
func sendFrames(c *moeclient.Client, id string, base, frames int, opts streamOpts) error {
	seed := tenantSeed(id)
	obs := make([]moe.Observation, opts.Batch)
	for f := 0; f < frames; f++ {
		fillObservations(obs, seed, base+f*opts.Batch)
		if err := c.Send(uint64(f), 0, id, "", obs); err != nil {
			return fmt.Errorf("send frame %d: %v", f, err)
		}
		if (f+1)%opts.FlushEvery == 0 {
			if err := c.Flush(); err != nil {
				return fmt.Errorf("flush at frame %d: %v", f, err)
			}
		}
	}
	if err := c.Flush(); err != nil {
		return fmt.Errorf("final flush: %v", err)
	}
	return nil
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

	srv, base, stop, err := startServer(cfg)
	if err != nil {
		return nil, nil, err
	}
	res := runWireArm(base, opts, opts.GCFrames)
	arm := &streamGCArm{
		WindowMs:        float64(window) / float64(time.Millisecond),
		DecisionsPerSec: res.perSec(),
	}
	arm.Fsyncs, _ = srv.GroupCommitStats()
	notes := res.errs
	if drep, err := srv.Drain(cfg.DrainWindow); err != nil || !drep.Clean() {
		notes = append(notes, fmt.Sprintf("gc window %s: drain not clean (err=%v)", window, err))
	}
	stop()

	// Cold restart on the drained lineage: one more frame per tenant must
	// resume at exactly the acked count.
	_, base2, stop2, err := startServer(cfg)
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
		n := opts.GCFrames * opts.Batch
		obs := make([]moe.Observation, opts.Batch)
		fillObservations(obs, tenantSeed(id), n)
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
	rep := &streamReport{Tenants: opts.Tenants}

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

	arms := []struct {
		transport string
		run       func(base string) *armResult
	}{
		{"json", func(base string) *armResult { return runJSONArm(base, opts) }},
		{"ndjson", func(base string) *armResult { return runNDJSONArm(base, opts) }},
		{"wire", func(base string) *armResult { return runWireArm(base, opts, opts.FramesPerTenant) }},
	}
	for _, a := range arms {
		_, base, stop, err := startServer(streamServeConfig(opts))
		if err != nil {
			return nil, err
		}
		res := a.run(base)
		golden(a.transport, res)
		stop()
		rep.Arms = append(rep.Arms, streamArm{Transport: a.transport, DecisionsPerSec: res.perSec()})
	}
	// Arms ran in order json, ndjson, wire. A JSON arm that served nothing
	// leaves the speedup at 0, below the bar.
	if jsonRate := rep.Arms[0].DecisionsPerSec; jsonRate > 0 {
		rep.SpeedupWireVsJSON = rep.Arms[2].DecisionsPerSec / jsonRate
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

func (rep *streamReport) table() *experiments.Table {
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
			if err := sendFrames(c, id, base, frames, opts); err != nil {
				fail("%v", err)
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

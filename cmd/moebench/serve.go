package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"moe/internal/experiments"
	"moe/internal/serve"
)

// The serve study: the multi-tenant daemon under a mixed-fleet load — a
// hundred-plus healthy tenants plus injected chaos tenants (panics,
// stalls) — driven over real HTTP for a fixed window, then drained. It
// reports sustained decisions/sec with the envelope's shed/deadline/breaker
// counts, and gates on the isolation proof: every healthy tenant's served
// trace, extended across a cold restart, must match a solo Runtime exactly,
// chaos or no chaos, and the drain must finish clean.

type serveOpts struct {
	Tenants     int           // healthy tenants
	ChaosPanic  int           // tenants that panic every serve.FaultPanicEvery decisions
	ChaosStall  int           // tenants that wedge at decision serve.FaultStallAt
	Workers     int           // concurrent client goroutines
	Batch       int           // observations per request
	Duration    time.Duration // load window
	MaxInflight int
	DrainWindow time.Duration
}

func defaultServeOpts() serveOpts {
	return serveOpts{
		Tenants:     112,
		ChaosPanic:  4,
		ChaosStall:  2,
		Workers:     12,
		Batch:       16,
		Duration:    4 * time.Second,
		MaxInflight: 8,
		DrainWindow: 10 * time.Second,
	}
}

type serveReport struct {
	Tenants int // healthy + chaos

	DecisionsServed int64
	DecisionsPerSec float64
	RequestsShed    int64

	// The envelope's verdicts, read back from the serve_* metric families.
	DeadlineExceeded int64
	PanicsRecovered  int64
	BreakerTrips     int64
	WatchdogRecycles int64

	// Isolation proof: healthy tenants' served traces vs solo runtimes.
	GoldenTenantsChecked int
	GoldenMismatches     int

	DrainElapsedSec float64
	DrainWindowSec  float64
	DrainClean      bool

	Notes []string
}

// check is the study's gate: no tenant leaks a fault into another's
// decisions, and the drain finishes inside its window.
func (r *serveReport) check() error {
	var errs []error
	if r.GoldenMismatches > 0 {
		errs = append(errs, fmt.Errorf("isolation violated: %d golden mismatches", r.GoldenMismatches))
	}
	if !r.DrainClean {
		errs = append(errs, fmt.Errorf("drain not clean within %.0fs window", r.DrainWindowSec))
	}
	return errors.Join(errs...)
}

// runServe is the whole study: load, drain, golden check, restart check.
func runServe(opts serveOpts) (*serveReport, error) {
	root, err := os.MkdirTemp("", "moed-bench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	cfg := serve.Config{
		MaxThreads:       studyMaxThreads,
		CheckpointRoot:   root,
		CheckpointEvery:  128,
		MaxInflight:      opts.MaxInflight,
		WedgeTimeout:     400 * time.Millisecond,
		WatchdogInterval: 50 * time.Millisecond,
		BreakerBackoff:   200 * time.Millisecond,
		DrainWindow:      opts.DrainWindow,
		PolicyBuild:      serve.FaultInjectionBuild(serve.DefaultPolicyBuild),
	}
	srv, base, stop, err := startServer(cfg)
	if err != nil {
		return nil, err
	}
	defer stop()

	healthy := make([]string, opts.Tenants)
	for i := range healthy {
		healthy[i] = fmt.Sprintf("acct-%03d", i)
	}
	var chaos []string
	for i := 0; i < opts.ChaosPanic; i++ {
		chaos = append(chaos, fmt.Sprintf("%s-%d", serve.ChaosPanicPrefix, i))
	}
	for i := 0; i < opts.ChaosStall; i++ {
		chaos = append(chaos, fmt.Sprintf("%s-%d", serve.ChaosStallPrefix, i))
	}
	all := append(append([]string{}, healthy...), chaos...)

	// Load phase: workers own disjoint tenant subsets and serve them
	// round-robin, so each tenant's stream stays strictly sequential. A
	// shed batch is retried next round — the acked prefix is exactly what
	// the golden replay gets.
	acked := make([]atomic.Int64, len(all)) // observations acknowledged per tenant
	var shedOrFailed atomic.Int64
	stopAt := time.Now().Add(opts.Duration)
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := &serveClient{base: base, client: &http.Client{Timeout: 5 * time.Second}}
			for time.Now().Before(stopAt) {
				for ti := w; ti < len(all); ti += opts.Workers {
					id := all[ti]
					from := int(acked[ti].Load())
					deadline := 2000
					if ti >= len(healthy) {
						deadline = 250 // chaos tenants: fail fast
					}
					status, _, err := cl.post(id, from, opts.Batch, deadline, "")
					if err == nil && status == http.StatusOK {
						acked[ti].Add(int64(opts.Batch))
					} else {
						shedOrFailed.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	drep, err := srv.Drain(opts.DrainWindow)
	if err != nil {
		return nil, err
	}
	rep := &serveReport{
		Tenants:         len(all),
		RequestsShed:    shedOrFailed.Load(),
		DrainElapsedSec: drep.Elapsed.Seconds(),
		DrainWindowSec:  opts.DrainWindow.Seconds(),
		DrainClean:      drep.Clean(),
	}
	collectServeMetrics(srv, rep)
	rep.DecisionsPerSec = float64(rep.DecisionsServed) / opts.Duration.Seconds()

	// Golden phase: every healthy tenant's acked trace must replay
	// identically on a solo runtime. The trace is read back from the
	// drained checkpoint lineage via a cold restart — which doubles as the
	// resume proof.
	_, base2, stop2, err := startServer(cfg)
	if err != nil {
		return nil, err
	}
	defer stop2()
	cl := &serveClient{base: base2, client: &http.Client{Timeout: 10 * time.Second}}
	for ti, id := range healthy {
		n := int(acked[ti].Load())
		if n == 0 {
			continue
		}
		// One more batch against the restarted daemon: its returned
		// decision counter proves the tenant resumed the full prefix, and
		// its threads extend the golden comparison across the restart.
		status, resp, err := cl.post(id, n, opts.Batch, 10000, "")
		if err != nil || status != http.StatusOK {
			rep.Notes = append(rep.Notes, fmt.Sprintf("tenant %s: post-restart serve failed (status %d, err %v)", id, status, err))
			rep.GoldenMismatches++
			continue
		}
		if resp.Decisions != int64(n+opts.Batch) {
			rep.Notes = append(rep.Notes, fmt.Sprintf("tenant %s: resumed decisions=%d, want %d", id, resp.Decisions, n+opts.Batch))
			rep.GoldenMismatches++
			continue
		}
		want, err := soloServeThreads(id, n+opts.Batch)
		if err != nil {
			return nil, err
		}
		tail := want[n:]
		match := len(resp.Threads) == len(tail)
		for i := 0; match && i < len(tail); i++ {
			match = resp.Threads[i] == tail[i]
		}
		rep.GoldenTenantsChecked++
		if !match {
			rep.GoldenMismatches++
			rep.Notes = append(rep.Notes, fmt.Sprintf("tenant %s: post-restart threads diverge from solo replay", id))
		}
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("isolation: %d healthy tenants golden-checked across drain+restart against solo runtimes, %d mismatches",
			rep.GoldenTenantsChecked, rep.GoldenMismatches),
		fmt.Sprintf("chaos: %d panic + %d stall tenants absorbed by the envelope (panics=%d, trips=%d, recycles=%d, deadline=%d)",
			opts.ChaosPanic, opts.ChaosStall, rep.PanicsRecovered, rep.BreakerTrips, rep.WatchdogRecycles, rep.DeadlineExceeded))
	return rep, nil
}

// collectServeMetrics reads the envelope counters back out of the metric
// registry's JSON exposition — the same numbers an operator would scrape.
// Keys are "name" or "name{labels}".
func collectServeMetrics(srv *serve.Server, rep *serveReport) {
	var buf bytes.Buffer
	if err := srv.Registry().WriteJSON(&buf); err != nil {
		rep.Notes = append(rep.Notes, "metrics scrape failed: "+err.Error())
		return
	}
	var doc map[string]struct {
		Value float64 `json:"value"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		rep.Notes = append(rep.Notes, "metrics decode failed: "+err.Error())
		return
	}
	for key, m := range doc {
		name, _, _ := strings.Cut(key, "{")
		v := int64(m.Value)
		switch name {
		case "serve_decisions_total":
			rep.DecisionsServed = v
		case "serve_deadline_exceeded_total":
			rep.DeadlineExceeded = v
		case "serve_panics_recovered_total":
			rep.PanicsRecovered = v
		case "serve_breaker_trips_total":
			rep.BreakerTrips = v
		case "serve_watchdog_recycles_total":
			rep.WatchdogRecycles = v
		}
	}
}

func (rep *serveReport) table() *experiments.Table {
	t := &experiments.Table{
		Title:   "Multi-tenant daemon under chaos load — sustained service with fault isolation",
		Columns: []string{"value"},
		Notes:   rep.Notes,
	}
	t.AddRow("tenants (healthy+chaos)", float64(rep.Tenants))
	t.AddRow("decisions/sec sustained", rep.DecisionsPerSec)
	t.AddRow("decisions served", float64(rep.DecisionsServed))
	t.AddRow("requests shed/refused", float64(rep.RequestsShed))
	t.AddRow("deadline exceeded", float64(rep.DeadlineExceeded))
	t.AddRow("panics recovered", float64(rep.PanicsRecovered))
	t.AddRow("breaker trips", float64(rep.BreakerTrips))
	t.AddRow("watchdog recycles", float64(rep.WatchdogRecycles))
	t.AddRow("golden tenants checked", float64(rep.GoldenTenantsChecked))
	t.AddRow("golden mismatches", float64(rep.GoldenMismatches))
	t.AddRow("drain seconds", rep.DrainElapsedSec)
	return t
}

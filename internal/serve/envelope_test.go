package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"moe"
	"moe/moeclient"
)

// TestPanicQuarantineAndProbation walks one tenant through the whole
// breaker ladder: fault → 500 + quarantine → 503 with Retry-After while
// cooling off → probation service → closed again.
func TestPanicQuarantineAndProbation(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		BreakerBackoff:    100 * time.Millisecond,
		ProbationRequests: 2,
		PolicyBuild: func(id string) (moe.Policy, error) {
			p, err := DefaultPolicyBuild(id)
			if err != nil {
				return nil, err
			}
			return PanicEvery(p, 50), nil
		},
	})
	id := "faulty"
	const batch = 10
	// Decisions 1..40 are clean; the batch holding decision 50 faults.
	for r := 0; r < 4; r++ {
		mustDecide(t, ts.URL, id, toWire(tenantStream(id, r*batch, batch)))
	}
	status, _, eresp, _ := postDecide(t, ts.URL, id, toWire(tenantStream(id, 40, batch)), 0)
	if status != http.StatusInternalServerError || eresp.Code != "tenant-fault" {
		t.Fatalf("faulting batch: status %d code %q, want 500 tenant-fault", status, eresp.Code)
	}
	if v := srv.metrics.panics.Value(); v != 1 {
		t.Fatalf("serve_panics_recovered_total = %d, want 1", v)
	}
	// Quarantined: shed with a retry hint, no decision attempted.
	status, _, eresp, hdr := postDecide(t, ts.URL, id, toWire(tenantStream(id, 40, batch)), 0)
	if status != http.StatusServiceUnavailable || eresp.Code != "quarantined" {
		t.Fatalf("quarantined request: status %d code %q, want 503 quarantined", status, eresp.Code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("quarantine shed without Retry-After")
	}
	// After the backoff: probation serves on a fresh generation (ephemeral
	// tenant, so its decision counter restarts).
	time.Sleep(150 * time.Millisecond)
	resp := mustDecide(t, ts.URL, id, toWire(tenantStream(id, 40, batch)))
	if resp.Decisions != batch {
		t.Fatalf("probation generation decisions = %d, want %d (fresh runtime)", resp.Decisions, batch)
	}
	mustDecide(t, ts.URL, id, toWire(tenantStream(id, 50, batch)))
	srv.tn.mu.RLock()
	tn := srv.tn.m[id]
	srv.tn.mu.RUnlock()
	tn.mu.Lock()
	state, trips := tn.brk.state, tn.brk.trips
	tn.mu.Unlock()
	if state != breakerClosed {
		t.Fatalf("breaker %v after clean probation, want closed", state)
	}
	if trips != 1 {
		t.Fatalf("breaker trips = %d, want 1", trips)
	}
}

// TestWatchdogRecyclesWedgedTenant wedges a tenant mid-decision and
// expects: the request 504s at its deadline, the watchdog abandons the
// generation, and the next request is served by a fresh one — while a
// bystander tenant is served throughout.
func TestWatchdogRecyclesWedgedTenant(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		WedgeTimeout:     100 * time.Millisecond,
		WatchdogInterval: 10 * time.Millisecond,
		PolicyBuild: func(id string) (moe.Policy, error) {
			p, err := DefaultPolicyBuild(id)
			if err != nil {
				return nil, err
			}
			if id == "wedger" {
				return StallAt(p, 5, nil), nil
			}
			return p, nil
		},
	})
	mustDecide(t, ts.URL, "wedger", toWire(tenantStream("wedger", 0, 3)))
	// This batch hits the stalled 5th decision and must miss its deadline.
	status, _, eresp, _ := postDecide(t, ts.URL, "wedger", toWire(tenantStream("wedger", 3, 3)), 150)
	if status != http.StatusGatewayTimeout || eresp.Code != "deadline-exceeded" {
		t.Fatalf("wedged batch: status %d code %q, want 504 deadline-exceeded", status, eresp.Code)
	}
	// The bystander is untouched while the wedger is stuck.
	mustDecide(t, ts.URL, "bystander", toWire(tenantStream("bystander", 0, 8)))
	// Give the watchdog a sweep past the wedge budget, then serve again.
	deadline := time.Now().Add(2 * time.Second)
	for srv.metrics.recycles.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if srv.metrics.recycles.Value() == 0 {
		t.Fatal("watchdog never recycled the wedged tenant")
	}
	resp := mustDecide(t, ts.URL, "wedger", toWire(tenantStream("wedger", 0, 3)))
	if len(resp.Threads) != 3 {
		t.Fatalf("recycled tenant served %d threads, want 3", len(resp.Threads))
	}
	if v := srv.metrics.deadlineExceeded.Value(); v < 1 {
		t.Fatal("deadline miss not accounted")
	}
}

// TestDegradedStoreServesJournalLess blocks a tenant's checkpoint
// directory with a regular file: the typed checkpoint.DiskError must map
// to journal-less serving — visible in /v1/tenants and the per-tenant
// degraded gauge — never to a refusal, and the drain must report the
// tenant as journal-only without calling it an error.
func TestDegradedStoreServesJournalLess(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "blocked"), []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{CheckpointRoot: root})
	// The blocked tenant serves anyway...
	resp := mustDecide(t, ts.URL, "blocked", toWire(tenantStream("blocked", 0, 8)))
	want := soloThreads(t, tenantStream("blocked", 0, 8))
	if len(resp.Threads) != len(want) {
		t.Fatalf("degraded tenant served %d threads, want %d", len(resp.Threads), len(want))
	}
	// ...and a healthy sibling still gets real persistence.
	mustDecide(t, ts.URL, "fine", toWire(tenantStream("fine", 0, 8)))
	if _, err := os.Stat(filepath.Join(root, "fine")); err != nil {
		t.Fatalf("healthy sibling got no checkpoint directory: %v", err)
	}

	// The degradation is visible, not silent.
	var buf bytes.Buffer
	if err := srv.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, `serve_tenant_checkpoint_degraded{tenant="blocked"} 1`) {
		t.Error("degraded gauge for the blocked tenant not exposed")
	}
	if !strings.Contains(text, `serve_tenant_checkpoint_degraded{tenant="fine"} 0`) {
		t.Error("healthy tenant's degraded gauge not exposed as 0")
	}
	req, err := http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer req.Body.Close()
	var listing bytes.Buffer
	listing.ReadFrom(req.Body)
	if !strings.Contains(listing.String(), "checkpoint:") {
		t.Errorf("/v1/tenants does not surface the degraded reason: %s", listing.String())
	}

	rep, err := srv.Drain(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("drain around a degraded tenant must still be clean: %+v", rep)
	}
	if len(rep.JournalOnly) != 1 || rep.JournalOnly[0] != "blocked" {
		t.Fatalf("JournalOnly = %v, want [blocked]", rep.JournalOnly)
	}
	if rep.Checkpointed != 1 {
		t.Fatalf("Checkpointed = %d, want 1 (the healthy sibling)", rep.Checkpointed)
	}
}

// shedCounts reads serve_shed_total by reason.
func shedCounts(srv *Server) map[string]int64 {
	srv.metrics.mu.Lock()
	defer srv.metrics.mu.Unlock()
	out := make(map[string]int64, len(srv.metrics.sheds))
	for reason, c := range srv.metrics.sheds {
		out[reason] = c.Value()
	}
	return out
}

// TestEnvelopeParity pins the one admission envelope: each refusal reaches
// a JSON body, an NDJSON line, a demoted JSON value on the stream port and
// a wire frame with the same code, and costs each of them the same
// serve_shed_total{reason} delta — one for a shed, none for a malformed
// request. An NDJSON body is admitted as a whole, so its single line
// carries the body's admission refusal.
func TestEnvelopeParity(t *testing.T) {
	type parityCase struct {
		name          string
		cfg           Config
		setup         func(t *testing.T, srv *Server, url string)
		tenant, reqID string
		obs           []moe.Observation
		code          string
		shed          bool
	}
	obs := tenantStream("parity", 0, 2)
	cases := []parityCase{
		{name: "draining", setup: func(_ *testing.T, srv *Server, _ string) { srv.draining.Store(true) },
			code: "draining", shed: true},
		{name: "standby", setup: func(_ *testing.T, srv *Server, _ string) { srv.serving.Store(false) },
			code: "standby", shed: true},
		{name: "rate", cfg: Config{Rate: 0.001, Burst: 1},
			setup: func(_ *testing.T, srv *Server, _ string) { srv.bucket.take(time.Now()) },
			code:  "rate", shed: true},
		{name: "capacity", cfg: Config{MaxInflight: 1},
			setup: func(_ *testing.T, srv *Server, _ string) { srv.slots.tryAcquire() },
			code:  "capacity", shed: true},
		{name: "empty batch", code: "bad-request"},
		{name: "over MaxBatch", cfg: Config{MaxBatch: 1}, obs: obs, code: "bad-request"},
		{name: "oversized request id", reqID: strings.Repeat("x", maxRequestID+1), obs: obs, code: "bad-request"},
		{name: "bad tenant", tenant: "no/slashes", obs: obs, code: "bad-tenant"},
		{name: "quarantined", obs: obs, code: "quarantined", shed: true,
			cfg: Config{BreakerBackoff: time.Minute, PolicyBuild: func(id string) (moe.Policy, error) {
				p, err := DefaultPolicyBuild(id)
				if err != nil {
					return nil, err
				}
				return PanicEvery(p, 1), nil
			}},
			setup: func(t *testing.T, _ *Server, url string) {
				if status, _, eresp, _ := postDecide(t, url, "parity", toWire(obs), 0); eresp == nil || eresp.Code != "tenant-fault" {
					t.Fatalf("tripping the breaker: status %d %+v, want tenant-fault", status, eresp)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.tenant == "" {
				tc.tenant = "parity"
			}
			srv, ts := newTestServer(t, tc.cfg)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.ServeStream(ln)
			wc := dialStream(t, ts.URL)
			dc, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer dc.Close()
			// Both sessions must be registered before a gate closes on them.
			for deadline := time.Now().Add(2 * time.Second); srv.stream.sessions.Value() < 2; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("stream sessions never registered")
				}
			}
			if tc.setup != nil {
				tc.setup(t, srv, ts.URL)
			}
			req := decideRequest{Tenant: tc.tenant, Observations: toWire(tc.obs), RequestID: tc.reqID}
			line, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			demoted := json.NewDecoder(bufio.NewReader(dc))
			transports := []struct {
				name string
				send func() string
			}{
				{"json", func() string {
					_, _, eresp := postDecideID(t, ts.URL, req.Tenant, req.RequestID, req.Observations)
					if eresp == nil {
						return "served"
					}
					return eresp.Code
				}},
				{"ndjson", func() string {
					resp, err := http.Post(ts.URL+"/v1/decide", "application/x-ndjson", bytes.NewReader(append(line, '\n')))
					if err != nil {
						t.Fatal(err)
					}
					defer resp.Body.Close()
					var eresp errorResponse
					if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil {
						t.Fatal(err)
					}
					return eresp.Code
				}},
				{"demoted", func() string {
					if _, err := dc.Write(append(line, '\n')); err != nil {
						t.Fatal(err)
					}
					var eresp errorResponse
					if err := demoted.Decode(&eresp); err != nil {
						t.Fatal(err)
					}
					return eresp.Code
				}},
				{"wire", func() string {
					resp, err := wc.Do(1, 0, tc.tenant, tc.reqID, tc.obs)
					if err != nil {
						t.Fatal(err)
					}
					if se, ok := resp.Err.(*moeclient.ServerError); ok {
						return se.Code
					}
					return "served"
				}},
			}
			for _, tr := range transports {
				before := shedCounts(srv)
				if code := tr.send(); code != tc.code {
					t.Errorf("%s: code %q, want %q", tr.name, code, tc.code)
				}
				after := shedCounts(srv)
				for reason, n := range after {
					want := int64(0)
					if tc.shed && reason == tc.code {
						want = 1
					}
					if d := n - before[reason]; d != want {
						t.Errorf("%s: serve_shed_total{reason=%q} moved by %d, want %d", tr.name, reason, d, want)
					}
				}
				if tc.shed && after[tc.code] == 0 {
					t.Errorf("%s: %s refusal never counted", tr.name, tc.code)
				}
			}
		})
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"moe"
	"moe/internal/features"
)

const testMaxThreads = 16

// tenantStream is the deterministic per-tenant observation stream: the
// steady golden shape of the differential suite, perturbed by a seed
// derived from the tenant ID so no two tenants see identical inputs.
func tenantStream(id string, from, n int) []moe.Observation {
	seed := 0
	for _, c := range id {
		seed = seed*31 + int(c)
	}
	if seed < 0 {
		seed = -seed
	}
	out := make([]moe.Observation, n)
	for i := range out {
		k := from + i
		var f moe.Features
		for j := range f {
			f[j] = 0.15*float64(j+1) + 0.02*float64((k*7+j*3+seed)%11)
		}
		f[features.Processors] = testMaxThreads
		out[i] = moe.Observation{
			Time:           0.25 * float64(k),
			Features:       f,
			RegionStart:    k%4 == 0,
			Rate:           100 + float64(seed%13),
			AvailableProcs: testMaxThreads,
		}
	}
	return out
}

// wire converts runtime observations to their JSON form, the exact body a
// client would post.
func toWire(obs []moe.Observation) []observation {
	out := make([]observation, len(obs))
	for i, o := range obs {
		fs := make([]float64, len(o.Features))
		copy(fs, o.Features[:])
		out[i] = observation{
			Time:           o.Time,
			Features:       fs,
			Rate:           o.Rate,
			RegionStart:    o.RegionStart,
			AvailableProcs: o.AvailableProcs,
		}
	}
	return out
}

// soloThreads is the ground truth: a lone Runtime wrapping the same
// canonical mixture, fed the same stream directly.
func soloThreads(t *testing.T, obs []moe.Observation) []int {
	t.Helper()
	p, err := DefaultPolicyBuild("solo")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := moe.NewRuntime(p, testMaxThreads)
	if err != nil {
		t.Fatal(err)
	}
	return rt.DecideBatch(obs)
}

// postDecide posts one decide request and decodes whichever shape came
// back. deadlineMs <= 0 omits the header.
func postDecide(t *testing.T, url, tenant string, obs []observation, deadlineMs int) (int, *decideResponse, *errorResponse, http.Header) {
	t.Helper()
	body, err := json.Marshal(decideRequest{Tenant: tenant, Observations: obs})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/decide", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if deadlineMs > 0 {
		req.Header.Set("X-Deadline-Ms", strconv.Itoa(deadlineMs))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		var out decideResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding 200 body: %v", err)
		}
		return resp.StatusCode, &out, nil, resp.Header
	}
	var eresp errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil {
		t.Fatalf("decoding %d body: %v", resp.StatusCode, err)
	}
	return resp.StatusCode, nil, &eresp, resp.Header
}

// mustDecide posts and requires 200.
func mustDecide(t *testing.T, url, tenant string, obs []observation) *decideResponse {
	t.Helper()
	status, out, eresp, _ := postDecide(t, url, tenant, obs, 0)
	if status != http.StatusOK {
		t.Fatalf("tenant %s: status %d (%+v)", tenant, status, eresp)
	}
	return out
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.MaxThreads == 0 {
		cfg.MaxThreads = testMaxThreads
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	return srv, ts
}

func TestTokenBucket(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newTokenBucket(10, 2) // 10/sec, burst 2
	for i := 0; i < 2; i++ {
		if ok, _ := b.take(now); !ok {
			t.Fatalf("take %d within burst refused", i)
		}
	}
	ok, retry := b.take(now)
	if ok {
		t.Fatal("take past burst admitted")
	}
	if retry <= 0 || retry > 100*time.Millisecond {
		t.Fatalf("retry hint %v, want (0, 100ms]", retry)
	}
	if ok, _ = b.take(now.Add(retry)); !ok {
		t.Fatal("take after the hinted wait refused")
	}
	// Disabled bucket admits everything.
	free := newTokenBucket(0, 0)
	for i := 0; i < 1000; i++ {
		if ok, _ := free.take(now); !ok {
			t.Fatal("disabled bucket refused")
		}
	}
}

func TestBreakerLadder(t *testing.T) {
	now := time.Unix(2000, 0)
	b := newBreaker(100*time.Millisecond, 400*time.Millisecond, 2)
	if ok, _ := b.admit(now); !ok {
		t.Fatal("fresh breaker refused")
	}
	b.trip(now)
	if ok, retry := b.admit(now.Add(50 * time.Millisecond)); ok {
		t.Fatal("quarantined breaker admitted early")
	} else if retry != 50*time.Millisecond {
		t.Fatalf("retry = %v, want 50ms", retry)
	}
	// Quarantine lapses into probation; two clean requests close it and
	// forgive the backoff.
	now = now.Add(150 * time.Millisecond)
	if ok, _ := b.admit(now); !ok {
		t.Fatal("lapsed quarantine refused")
	}
	if b.state != breakerProbation {
		t.Fatalf("state %v after lapse, want probation", b.state)
	}
	b.succeed()
	if b.state != breakerProbation {
		t.Fatal("closed after one clean request, probation wants two")
	}
	b.succeed()
	if b.state != breakerClosed {
		t.Fatal("not closed after probation served")
	}
	if b.backoff != 100*time.Millisecond {
		t.Fatalf("backoff %v after clean probation, want reset to base", b.backoff)
	}
	// Re-trips double the quarantine, saturating at max.
	for i, want := range []time.Duration{100, 200, 400, 400} {
		b.trip(now)
		got := b.openUntil.Sub(now)
		if got != want*time.Millisecond {
			t.Fatalf("trip %d: quarantine %v, want %v", i, got, want*time.Millisecond)
		}
		now = b.openUntil
		b.admit(now) // into probation; next trip doubles
	}
}

func TestRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 8})
	cases := []struct {
		name   string
		tenant string
		obs    []observation
		code   string
	}{
		{"no observations", "ok-tenant", nil, "bad-request"},
		{"oversized batch", "ok-tenant", toWire(tenantStream("ok-tenant", 0, 9)), "bad-request"},
		{"bad tenant id", "no/slashes", toWire(tenantStream("x", 0, 1)), "bad-tenant"},
		{"empty tenant id", "", toWire(tenantStream("x", 0, 1)), "bad-tenant"},
		{"oversized features", "ok-tenant", []observation{{Features: make([]float64, features.Dim+1)}}, "bad-request"},
	}
	for _, tc := range cases {
		status, _, eresp, _ := postDecide(t, ts.URL, tc.tenant, tc.obs, 0)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, status)
			continue
		}
		if eresp.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, eresp.Code, tc.code)
		}
	}
}

func TestServesAndCountsDecisions(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	stream := tenantStream("solo-check", 0, 48)
	var got []int
	for i := 0; i < 48; i += 16 {
		resp := mustDecide(t, ts.URL, "solo-check", toWire(stream[i:i+16]))
		got = append(got, resp.Threads...)
		if want := int64(i + 16); resp.Decisions != want {
			t.Fatalf("decisions after %d served = %d, want %d", i+16, resp.Decisions, want)
		}
	}
	want := soloThreads(t, stream)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("served threads diverge from solo runtime:\n got %v\nwant %v", got, want)
	}
	if v := srv.metrics.decisions.Value(); v != 48 {
		t.Fatalf("serve_decisions_total = %d, want 48", v)
	}
}

func TestNDJSONStreaming(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	stream := tenantStream("ndjson-tenant", 0, 32)
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for i := 0; i < 32; i += 8 {
		if err := enc.Encode(decideRequest{Tenant: "ndjson-tenant", Observations: toWire(stream[i : i+8])}); err != nil {
			t.Fatal(err)
		}
	}
	// A malformed trailing line must not poison the earlier ones.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/decide", &body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	var got []int
	for i := 0; i < 4; i++ {
		var line decideResponse
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		got = append(got, line.Threads...)
	}
	want := soloThreads(t, stream)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("NDJSON threads diverge from solo runtime:\n got %v\nwant %v", got, want)
	}
}

// TestJSONAckDecisionsDistinct: concurrent one-observation requests on one
// tenant are each acked with their own decision count — the tenant's count
// right after that request's decision — so the acked counts are exactly
// 1..N whatever the interleaving.
func TestJSONAckDecisionsDistinct(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const id, workers, perWorker = "acks", 8, 150
	acked := make([][]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				body, _ := json.Marshal(decideRequest{Tenant: id, Observations: toWire(tenantStream(id, w*perWorker+i, 1))})
				resp, err := http.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var out decideResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("worker %d request %d: status %d, %v", w, i, resp.StatusCode, err)
					return
				}
				acked[w] = append(acked[w], out.Decisions)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	seen := make(map[int64]int)
	for _, counts := range acked {
		for _, n := range counts {
			seen[n]++
		}
	}
	dups := 0
	for n := int64(1); n <= workers*perWorker; n++ {
		if seen[n] != 1 {
			dups++
		}
	}
	if dups > 0 {
		t.Fatalf("%d of the counts 1..%d were not acked exactly once", dups, workers*perWorker)
	}
}

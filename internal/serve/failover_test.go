package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"moe"
	"moe/internal/atomicio"
)

// Failover proofs: a primary/standby pair must lose zero acked decisions and
// duplicate zero acked decisions across a hard primary kill at ANY point in
// a multi-tenant trace, and the concatenated acked stream must stay
// byte-identical to a lone Runtime that never crashed.

// postDecideID is postDecide with an idempotency key on the request.
func postDecideID(t *testing.T, url, tenant, reqID string, obs []observation) (int, *decideResponse, *errorResponse) {
	t.Helper()
	body, err := json.Marshal(decideRequest{Tenant: tenant, Observations: obs, RequestID: reqID})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/decide", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
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
		return resp.StatusCode, &out, nil
	}
	var eresp errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil {
		t.Fatalf("decoding %d body: %v", resp.StatusCode, err)
	}
	return resp.StatusCode, nil, &eresp
}

// promoteStandby POSTs /v1/promote and requires success.
func promoteStandby(t *testing.T, url string) *PromoteReport {
	t.Helper()
	resp, err := http.Post(url+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d", resp.StatusCode)
	}
	var rep PromoteReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return &rep
}

// failoverPair is a replicating primary plus its hot standby.
type failoverPair struct {
	prim   *Server
	primTS *httptest.Server
	sb     *Server
	sbTS   *httptest.Server
}

func newFailoverPair(t *testing.T, every int, mutate func(prim, sb *Config)) *failoverPair {
	t.Helper()
	sbCfg := Config{Standby: true, CheckpointRoot: t.TempDir(), CheckpointEvery: every}
	primCfg := Config{CheckpointRoot: t.TempDir(), CheckpointEvery: every}
	if mutate != nil {
		mutate(&primCfg, &sbCfg)
	}
	sb, sbTS := newTestServer(t, sbCfg)
	primCfg.ReplicateTo = sbTS.URL
	prim, primTS := newTestServer(t, primCfg)
	return &failoverPair{prim: prim, primTS: primTS, sb: sb, sbTS: sbTS}
}

// kill hard-kills the primary: connections refused, no drain, no flush —
// from the standby's perspective, a crash.
func (p *failoverPair) kill() {
	p.primTS.Close()
	p.prim.Close()
}

// step is one request of the golden multi-tenant trace.
type step struct {
	tenant string
	idx    int // per-tenant decision index
}

// goldenSchedule interleaves the tenants' streams request by request.
func goldenSchedule(tenants []string, perTenant int) []step {
	var steps []step
	for k := 0; k < perTenant; k++ {
		for _, id := range tenants {
			steps = append(steps, step{tenant: id, idx: k})
		}
	}
	return steps
}

// TestKillMatrixByteIdentity is the headline proof: for every index k in the
// golden trace, hard-kill the primary at k, promote the standby, finish the
// trace there — the concatenated acked per-tenant thread sequences must be
// byte-identical to an unbroken solo runtime, with zero lost and zero
// duplicated acked decisions. Three kill flavors per index:
//
//   - clean: the primary dies between requests; request k onward runs on
//     the promoted standby.
//   - acked-lost: request k was acked and shipped, but the ack never
//     reached the client (died in flight). The retry on the new primary
//     must answer from the replicated dedup window — same threads, no
//     re-execution.
//   - unshipped: the primary died after deciding request k but its
//     replication group was lost with it (and so was the ack). The retry
//     re-executes on the standby's state and must produce the identical
//     threads, because the standby holds exactly the pre-k state.
//
// The sync/ subtests rerun the whole matrix on a pair with CheckpointSync
// on, where every ack waits for the journal fsync and the ship together.
func TestKillMatrixByteIdentity(t *testing.T) {
	tenants := []string{"alpha", "beta"}
	const perTenant = 8
	steps := goldenSchedule(tenants, perTenant)
	solo := make(map[string][]int, len(tenants))
	streams := make(map[string][]moe.Observation, len(tenants))
	for _, id := range tenants {
		streams[id] = tenantStream(id, 0, perTenant)
		solo[id] = soloThreads(t, streams[id])
	}
	stride := 1
	if testing.Short() {
		stride = 5
	}
	matrix := func(t *testing.T, mutate func(prim, sb *Config)) {
		for _, variant := range []string{"clean", "acked-lost", "unshipped"} {
			for k := 0; k < len(steps); k += stride {
				t.Run(fmt.Sprintf("%s/k=%d", variant, k), func(t *testing.T) {
					runKillScenario(t, variant, k, steps, streams, solo, mutate)
				})
			}
		}
	}
	matrix(t, nil)
	t.Run("sync", func(t *testing.T) {
		matrix(t, func(prim, sb *Config) {
			prim.CheckpointSync = true
			sb.CheckpointSync = true
		})
	})
}

func runKillScenario(t *testing.T, variant string, killAt int, steps []step,
	streams map[string][]moe.Observation, solo map[string][]int, mutate func(prim, sb *Config)) {
	pair := newFailoverPair(t, 4, mutate)
	acked := make(map[string][]int)
	url := pair.primTS.URL
	killed := false
	reqID := func(st step) string { return fmt.Sprintf("req-%s-%d", st.tenant, st.idx) }
	obsOf := func(st step) []observation { return toWire(streams[st.tenant][st.idx : st.idx+1]) }

	promote := func() {
		pair.kill()
		promoteStandby(t, pair.sbTS.URL)
		url = pair.sbTS.URL
		killed = true
	}
	for i, st := range steps {
		if i == killAt && !killed {
			switch variant {
			case "clean":
				// Die between requests; request k is served by the standby.
				promote()
			case "acked-lost":
				// Request k is acked (decided, journaled, shipped) but the
				// response dies with the node. The client retries.
				status, orig, eresp := postDecideID(t, url, st.tenant, reqID(st), obsOf(st))
				if status != http.StatusOK {
					t.Fatalf("step %d pre-kill: status %d (%+v)", i, status, eresp)
				}
				promote()
				status, retr, eresp := postDecideID(t, url, st.tenant, reqID(st), obsOf(st))
				if status != http.StatusOK {
					t.Fatalf("step %d retry: status %d (%+v)", i, status, eresp)
				}
				if !retr.Deduped {
					t.Fatalf("step %d retry of shipped ack was re-executed, want dedup hit", i)
				}
				if fmt.Sprint(retr.Threads) != fmt.Sprint(orig.Threads) {
					t.Fatalf("step %d dedup answer %v != original ack %v", i, retr.Threads, orig.Threads)
				}
				if retr.Decisions != int64(st.idx+1) {
					t.Fatalf("step %d dedup decisions %d, want %d", i, retr.Decisions, st.idx+1)
				}
				acked[st.tenant] = append(acked[st.tenant], retr.Threads...)
				continue
			case "unshipped":
				// The replication group for request k is lost with the node
				// (and so is the ack): the retry must re-execute on the
				// standby's pre-k state and land on identical threads.
				pair.prim.SetReplicaFailpoint(func() bool { return true })
				status, orig, eresp := postDecideID(t, url, st.tenant, reqID(st), obsOf(st))
				if status != http.StatusOK {
					t.Fatalf("step %d pre-kill: status %d (%+v)", i, status, eresp)
				}
				if lag := pair.prim.ReplicaLag(); lag == 0 {
					t.Fatalf("step %d: failpoint did not strand shipments", i)
				}
				promote()
				status, retr, eresp := postDecideID(t, url, st.tenant, reqID(st), obsOf(st))
				if status != http.StatusOK {
					t.Fatalf("step %d retry: status %d (%+v)", i, status, eresp)
				}
				if retr.Deduped {
					t.Fatalf("step %d: unshipped request dedup-hit on the standby", i)
				}
				if fmt.Sprint(retr.Threads) != fmt.Sprint(orig.Threads) {
					t.Fatalf("step %d re-executed threads %v != original %v", i, retr.Threads, orig.Threads)
				}
				acked[st.tenant] = append(acked[st.tenant], retr.Threads...)
				continue
			}
		}
		status, out, eresp := postDecideID(t, url, st.tenant, reqID(st), obsOf(st))
		if status != http.StatusOK {
			t.Fatalf("step %d (%s[%d], killed=%v): status %d (%+v)", i, st.tenant, st.idx, killed, status, eresp)
		}
		if out.Deduped {
			t.Fatalf("step %d: fresh request answered from the dedup window", i)
		}
		if out.Decisions != int64(st.idx+1) {
			t.Fatalf("step %d: decisions %d, want %d — lost or duplicated acks", i, out.Decisions, st.idx+1)
		}
		acked[st.tenant] = append(acked[st.tenant], out.Threads...)
	}
	if !killed {
		promote() // killAt past the trace: still exercise promote-at-end
	}
	for id, want := range solo {
		if fmt.Sprint(acked[id]) != fmt.Sprint(want) {
			t.Errorf("tenant %s acked trace diverged from unbroken solo runtime:\n got %v\nwant %v", id, acked[id], want)
		}
	}
}

// TestPromotionFencesLivePrimary proves the fencing half of failover: when
// the standby is promoted while the old primary is still alive, the old
// primary's very next decision is refused before it can be acked (its
// commit flush hits the promoted term), it latches deposed, and the client
// finishes the trace on the new primary with zero forked history.
func TestPromotionFencesLivePrimary(t *testing.T) {
	pair := newFailoverPair(t, 4, nil)
	const total = 8
	stream := tenantStream("alpha", 0, total)
	solo := soloThreads(t, stream)
	var acked []int
	for k := 0; k < 3; k++ {
		status, out, eresp := postDecideID(t, pair.primTS.URL, "alpha", fmt.Sprintf("req-alpha-%d", k), toWire(stream[k:k+1]))
		if status != http.StatusOK {
			t.Fatalf("pre-promote step %d: status %d (%+v)", k, status, eresp)
		}
		acked = append(acked, out.Threads...)
	}

	rep := promoteStandby(t, pair.sbTS.URL)
	if rep.Term < 2 {
		t.Fatalf("promoted term %d, want >= 2", rep.Term)
	}
	if len(rep.Tenants) != 1 || rep.Tenants[0].ID != "alpha" || rep.Tenants[0].Decisions != 3 {
		t.Fatalf("promote report %+v, want alpha at 3 decisions", rep.Tenants)
	}

	// The old primary is alive and does not know yet. Its next decision must
	// be fenced before the ack — 503, never a 200 that forks history.
	status, _, eresp := postDecideID(t, pair.primTS.URL, "alpha", "req-alpha-3", toWire(stream[3:4]))
	if status != http.StatusServiceUnavailable || eresp.Code != "deposed" {
		t.Fatalf("deposed primary answered %d code %q, want 503 deposed", status, eresp.Code)
	}
	if !pair.prim.primary.Deposed() {
		t.Fatal("primary did not latch deposed after fenced flush")
	}
	// From here the gate refuses before the decision path runs at all.
	status, _, eresp = postDecideID(t, pair.primTS.URL, "alpha", "req-alpha-3", toWire(stream[3:4]))
	if status != http.StatusServiceUnavailable || eresp.Code != "deposed" {
		t.Fatalf("latched primary answered %d code %q, want 503 deposed", status, eresp.Code)
	}

	// The client retries the fenced request on the new primary and finishes
	// the trace there.
	for k := 3; k < total; k++ {
		status, out, eresp := postDecideID(t, pair.sbTS.URL, "alpha", fmt.Sprintf("req-alpha-%d", k), toWire(stream[k:k+1]))
		if status != http.StatusOK {
			t.Fatalf("post-promote step %d: status %d (%+v)", k, status, eresp)
		}
		if out.Deduped {
			t.Fatalf("step %d: fenced (never-acked) decision dedup-hit on new primary", k)
		}
		acked = append(acked, out.Threads...)
	}
	if fmt.Sprint(acked) != fmt.Sprint(solo) {
		t.Fatalf("acked trace across fencing diverged from solo:\n got %v\nwant %v", acked, solo)
	}
}

// TestFailoverChaosIsolation is failover × the PR 7 envelope: the standby is
// promoted while one tenant sits breaker-quarantined after a panic and
// another is wedged under the watchdog. Fault isolation must hold through
// the promotion — the healthy tenant's acked trace stays byte-identical to
// solo, and the faulted tenants resume on the new primary from exactly
// their last acked decision.
func TestFailoverChaosIsolation(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	primBuild := func(id string) (moe.Policy, error) {
		p, err := DefaultPolicyBuild(id)
		if err != nil {
			return nil, err
		}
		switch id {
		case "boom":
			return PanicEvery(p, 4), nil // panics on its 4th decision
		case "wedge":
			return StallAt(p, 4, release), nil // wedges on its 4th decision
		}
		return p, nil
	}
	pair := newFailoverPair(t, 4, func(prim, sb *Config) {
		prim.PolicyBuild = primBuild
		prim.WedgeTimeout = 150 * time.Millisecond
		prim.WatchdogInterval = 20 * time.Millisecond
		prim.BreakerBackoff = 30 * time.Second // stays quarantined through the promotion
	})
	const total = 8
	streams := map[string][]moe.Observation{}
	for _, id := range []string{"healthy", "boom", "wedge"} {
		streams[id] = tenantStream(id, 0, total)
	}
	ackedHealthy := []int{}
	decide := func(url, id string, k, deadlineMs int) (int, *decideResponse, *errorResponse) {
		body, _ := json.Marshal(decideRequest{Tenant: id, Observations: toWire(streams[id][k : k+1]),
			RequestID: fmt.Sprintf("req-%s-%d", id, k)})
		req, _ := http.NewRequest(http.MethodPost, url+"/v1/decide", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if deadlineMs > 0 {
			req.Header.Set("X-Deadline-Ms", fmt.Sprint(deadlineMs))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			var out decideResponse
			json.NewDecoder(resp.Body).Decode(&out)
			return resp.StatusCode, &out, nil
		}
		var eresp errorResponse
		json.NewDecoder(resp.Body).Decode(&eresp)
		return resp.StatusCode, nil, &eresp
	}

	// Three clean decisions each.
	for k := 0; k < 3; k++ {
		for _, id := range []string{"healthy", "boom", "wedge"} {
			status, out, eresp := decide(pair.primTS.URL, id, k, 5000)
			if status != http.StatusOK {
				t.Fatalf("tenant %s step %d: status %d (%+v)", id, k, status, eresp)
			}
			if id == "healthy" {
				ackedHealthy = append(ackedHealthy, out.Threads...)
			}
		}
	}
	// boom's 4th decision panics: 500, breaker opens, quarantined.
	if status, _, _ := decide(pair.primTS.URL, "boom", 3, 5000); status != http.StatusInternalServerError {
		t.Fatalf("boom fault: status %d, want 500", status)
	}
	// wedge's 4th decision stalls: 504, and the watchdog recycles the
	// generation while the goroutine stays stuck in the policy.
	if status, _, _ := decide(pair.primTS.URL, "wedge", 3, 300); status != http.StatusGatewayTimeout {
		t.Fatalf("wedge fault: status %d, want 504", status)
	}
	deadlineAt := time.Now().Add(2 * time.Second)
	for pair.prim.metrics.recycles.Value() < 1 {
		if time.Now().After(deadlineAt) {
			t.Fatal("watchdog never recycled the wedged tenant")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Promote mid-chaos: one tenant quarantined, one wedged.
	rep := promoteStandby(t, pair.sbTS.URL)
	byID := map[string]PromotedTenant{}
	for _, pt := range rep.Tenants {
		byID[pt.ID] = pt
	}
	for _, id := range []string{"healthy", "boom", "wedge"} {
		pt, ok := byID[id]
		if !ok {
			t.Fatalf("tenant %s missing from promote report %+v", id, rep.Tenants)
		}
		if pt.Err != "" || pt.Decisions != 3 {
			t.Fatalf("tenant %s promoted at %d decisions (err %q), want 3 — faulted decisions were never acked",
				id, pt.Decisions, pt.Err)
		}
	}

	// The new primary (default policies) serves everyone from their last
	// acked decision; the faulted tenants' unacked attempts left no trace.
	for k := 3; k < total; k++ {
		for _, id := range []string{"healthy", "boom", "wedge"} {
			status, out, eresp := decide(pair.sbTS.URL, id, k, 5000)
			if status != http.StatusOK {
				t.Fatalf("post-promote tenant %s step %d: status %d (%+v)", id, k, status, eresp)
			}
			if out.Decisions != int64(k+1) {
				t.Fatalf("post-promote tenant %s step %d: decisions %d, want %d", id, k, out.Decisions, k+1)
			}
			if id == "healthy" {
				ackedHealthy = append(ackedHealthy, out.Threads...)
			}
		}
	}
	if want := soloThreads(t, streams["healthy"]); fmt.Sprint(ackedHealthy) != fmt.Sprint(want) {
		t.Fatalf("healthy tenant diverged across chaos failover:\n got %v\nwant %v", ackedHealthy, want)
	}
}

// TestJournalFaultDegradesTenantE2E is the disk-fault satellite, end to end:
// a journal append that dies mid-trace with a typed disk error must degrade
// that tenant to journal-less serving — latched, visible, isolated — while
// its acked decisions continue uninterrupted and byte-identical; a restart
// recovers the clean journal prefix from before the fault.
func TestJournalFaultDegradesTenantE2E(t *testing.T) {
	root := t.TempDir()
	var writes atomic.Int64
	faultCfg := Config{
		CheckpointRoot:  root,
		CheckpointEvery: 0, // journal-only: every decision is one append
		JournalFault: func(tenant string) atomicio.FaultFn {
			if tenant != "faulty" {
				return nil
			}
			return func(stage atomicio.Stage) error {
				if stage == atomicio.StageWrite && writes.Add(1) == 4 {
					return syscall.EIO
				}
				return nil
			}
		},
	}
	_, ts := newTestServer(t, faultCfg)
	const total = 8
	stream := tenantStream("faulty", 0, total)
	solo := soloThreads(t, stream)
	var acked []int
	for k := 0; k < total; k++ {
		status, out, eresp := postDecideID(t, ts.URL, "faulty", "", toWire(stream[k:k+1]))
		if status != http.StatusOK {
			t.Fatalf("step %d: status %d (%+v) — a disk fault must never fail a decision", k, status, eresp)
		}
		if out.Decisions != int64(k+1) {
			t.Fatalf("step %d: decisions %d, want %d", k, out.Decisions, k+1)
		}
		acked = append(acked, out.Threads...)
	}
	if fmt.Sprint(acked) != fmt.Sprint(solo) {
		t.Fatalf("acked trace diverged through the disk fault:\n got %v\nwant %v", acked, solo)
	}
	// The degradation is latched and typed: the tenant listing carries the
	// I/O error, not a silent journal gap.
	resp, err := http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []struct {
		ID       string `json:"id"`
		Degraded string `json:"degraded"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, info := range infos {
		if info.ID == "faulty" {
			found = true
			if info.Degraded == "" {
				t.Fatal("tenant not marked degraded after journal EIO")
			}
			if !strings.Contains(info.Degraded, "input/output error") {
				t.Fatalf("degraded reason %q does not carry the typed disk error", info.Degraded)
			}
		}
	}
	if !found {
		t.Fatal("tenant missing from listing")
	}

	// Restart on the same root, fault gone: the journal prefix from before
	// the fault (3 appends succeeded; the 4th died) recovers cleanly.
	_, ts2 := newTestServer(t, Config{CheckpointRoot: root, CheckpointEvery: 0})
	status, out, eresp := postDecideID(t, ts2.URL, "faulty", "", toWire(stream[3:4]))
	if status != http.StatusOK {
		t.Fatalf("post-restart: status %d (%+v)", status, eresp)
	}
	if out.Decisions != 4 {
		t.Fatalf("post-restart decisions %d, want 4 (3 recovered + 1 new)", out.Decisions)
	}
}

// TestRequestIDDedup pins same-process idempotency and its survival across
// a restart: a retried request ID answers from the window with the original
// decisions, the runtime advances exactly once, and the journaled markers
// rebuild the window after the process is replaced.
func TestRequestIDDedup(t *testing.T) {
	root := t.TempDir()
	_, ts := newTestServer(t, Config{CheckpointRoot: root})
	stream := tenantStream("idem", 0, 4)

	status, first, eresp := postDecideID(t, ts.URL, "idem", "r1", toWire(stream[0:2]))
	if status != http.StatusOK {
		t.Fatalf("first: status %d (%+v)", status, eresp)
	}
	status, again, _ := postDecideID(t, ts.URL, "idem", "r1", toWire(stream[0:2]))
	if status != http.StatusOK || !again.Deduped {
		t.Fatalf("retry: status %d deduped %v, want 200 dedup hit", status, again.Deduped)
	}
	if fmt.Sprint(again.Threads) != fmt.Sprint(first.Threads) || again.Decisions != first.Decisions {
		t.Fatalf("dedup answer (%v, %d) != original (%v, %d)",
			again.Threads, again.Decisions, first.Threads, first.Decisions)
	}
	// The header spelling is equivalent for single-JSON bodies.
	body, _ := json.Marshal(decideRequest{Tenant: "idem", Observations: toWire(stream[0:2])})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/decide", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "r1")
	hresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var hout decideResponse
	json.NewDecoder(hresp.Body).Decode(&hout)
	hresp.Body.Close()
	if !hout.Deduped {
		t.Fatal("X-Request-Id header did not dedup")
	}

	// Unidentified requests advance normally.
	status, out, _ := postDecideID(t, ts.URL, "idem", "", toWire(stream[2:3]))
	if status != http.StatusOK || out.Decisions != 3 {
		t.Fatalf("anonymous request: status %d decisions %d, want 200/3", status, out.Decisions)
	}

	// A replacement process recovers the window from the journal markers.
	_, ts2 := newTestServer(t, Config{CheckpointRoot: root})
	status, rec, _ := postDecideID(t, ts2.URL, "idem", "r1", toWire(stream[0:2]))
	if status != http.StatusOK || !rec.Deduped {
		t.Fatalf("post-restart retry: status %d deduped %v, want dedup hit", status, rec.Deduped)
	}
	if fmt.Sprint(rec.Threads) != fmt.Sprint(first.Threads) {
		t.Fatalf("post-restart dedup answer %v != original %v", rec.Threads, first.Threads)
	}
	// An oversized ID is refused before it can reach the journal.
	status, _, eresp = postDecideID(t, ts2.URL, "idem", strings.Repeat("x", maxRequestID+1), toWire(stream[3:4]))
	if status != http.StatusBadRequest {
		t.Fatalf("oversized request ID: status %d, want 400", status)
	}
	_ = eresp
}

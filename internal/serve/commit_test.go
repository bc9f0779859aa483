package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"moe"
	"moe/internal/atomicio"
)

// Commit-point proofs: with CheckpointSync on, one committed batch costs one
// journal fsync — a JSON request and a coalesced stream group alike — and
// the ack waits for both durable legs, the local fsync and the replica ship,
// which run side by side.

// countSyncs is a journal fault hook that counts fsyncs and injects nothing.
func countSyncs(n *atomic.Int64) func(string) atomicio.FaultFn {
	return func(string) atomicio.FaultFn {
		return func(stage atomicio.Stage) error {
			if stage == atomicio.StageSyncFile {
				n.Add(1)
			}
			return nil
		}
	}
}

// TestCommitOneFsyncPerJSONRequest: an identified JSON request journals its
// entries and its dedup marker, and commits them with exactly one fsync.
func TestCommitOneFsyncPerJSONRequest(t *testing.T) {
	var hooked atomic.Int64
	srv, ts := newTestServer(t, Config{
		CheckpointRoot: t.TempDir(),
		CheckpointSync: true,
		JournalFault:   countSyncs(&hooked),
	})
	stream := tenantStream("one", 0, 6)
	// The first request builds the tenant (attach snapshot, fresh journal).
	if status, _, eresp := postDecideID(t, ts.URL, "one", "warm", toWire(stream[0:2])); status != http.StatusOK {
		t.Fatalf("warm-up: status %d (%+v)", status, eresp)
	}
	for k := 1; k < 3; k++ {
		before, _ := srv.GroupCommitStats()
		hookedBefore := hooked.Load()
		reqID := fmt.Sprintf("r%d", k)
		if status, _, eresp := postDecideID(t, ts.URL, "one", reqID, toWire(stream[2*k:2*k+2])); status != http.StatusOK {
			t.Fatalf("request %s: status %d (%+v)", reqID, status, eresp)
		}
		after, _ := srv.GroupCommitStats()
		if got := after - before; got != 1 {
			t.Fatalf("request %s: %d committer fsyncs, want exactly 1", reqID, got)
		}
		if got := hooked.Load() - hookedBefore; got != 1 {
			t.Fatalf("request %s: %d journal fsyncs, want exactly 1", reqID, got)
		}
	}
	if got, _ := srv.GroupCommitStats(); srv.stream.gcFsyncs.Value() != got {
		t.Fatalf("fsync counter %d != committer stat %d", srv.stream.gcFsyncs.Value(), got)
	}
}

// TestCommitOneFsyncPerStreamGroup: identified frames pipelined to one
// tenant coalesce into merged groups; each group costs exactly one fsync.
func TestCommitOneFsyncPerStreamGroup(t *testing.T) {
	var hooked atomic.Int64
	slowOnce := sync.Once{}
	srv, ts := newTestServer(t, Config{
		CheckpointRoot: t.TempDir(),
		CheckpointSync: true,
		MaxInflight:    1024,
		JournalFault:   countSyncs(&hooked),
		PolicyBuild: func(id string) (moe.Policy, error) {
			// Hold the tenant build so the pipelined frames queue up.
			slowOnce.Do(func() { time.Sleep(100 * time.Millisecond) })
			return DefaultPolicyBuild(id)
		},
	})
	c := dialStream(t, ts.URL)
	const nFrames, perFrame = 16, 2
	stream := tenantStream("grp", 0, nFrames*perFrame)
	for f := 0; f < nFrames; f++ {
		if err := c.Send(uint64(f), 5000, "grp", fmt.Sprintf("g%d", f), stream[f*perFrame:(f+1)*perFrame]); err != nil {
			t.Fatalf("send %d: %v", f, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < nFrames; f++ {
		resp, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", f, err)
		}
		if resp.Err != nil {
			t.Fatalf("seq %d refused: %v", resp.Seq, resp.Err)
		}
	}
	groups := srv.stream.coalesced.Count()
	if groups == 0 || groups >= nFrames {
		t.Fatalf("%d groups for %d frames; want at least one merged group", groups, nFrames)
	}
	if fsyncs, _ := srv.GroupCommitStats(); fsyncs != groups {
		t.Fatalf("%d committer fsyncs for %d coalesced groups, want one each", fsyncs, groups)
	}
	if got := hooked.Load(); got != groups {
		t.Fatalf("%d journal fsyncs for %d coalesced groups, want one each", got, groups)
	}
}

// commitGate holds a replicating primary's two durable legs: the standby's
// ship handler and the primary's journal fsync (through the fault hook).
// Each leg signals when it is entered and waits for its release.
type commitGate struct {
	armed          atomic.Bool
	shipIn, syncIn chan struct{}
	shipGo, syncGo chan struct{}
	shipOnce       sync.Once
	syncOnce       sync.Once
}

func (g *commitGate) releaseShip() { g.shipOnce.Do(func() { close(g.shipGo) }) }
func (g *commitGate) releaseSync() { g.syncOnce.Do(func() { close(g.syncGo) }) }

// newGatedPair starts a standby behind a gated ship handler and a syncing
// primary replicating to it, committing inside window; fault builds the
// primary's journal fault hook.
func newGatedPair(t *testing.T, window time.Duration, fault func(g *commitGate) atomicio.FaultFn) (*Server, string, *commitGate) {
	t.Helper()
	g := &commitGate{
		shipIn: make(chan struct{}, 1), syncIn: make(chan struct{}, 1),
		shipGo: make(chan struct{}), syncGo: make(chan struct{}),
	}
	t.Cleanup(func() { g.releaseShip(); g.releaseSync() })
	sb, _ := newTestServer(t, Config{Standby: true, CheckpointRoot: t.TempDir()})
	gated := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if g.armed.Load() && r.URL.Path == "/replica/v1/ship" {
			g.shipIn <- struct{}{}
			<-g.shipGo
		}
		sb.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(gated.Close)
	prim, ts := newTestServer(t, Config{
		CheckpointRoot:    t.TempDir(),
		CheckpointSync:    true,
		GroupCommitWindow: window,
		ReplicateTo:       gated.URL,
		JournalFault:      func(string) atomicio.FaultFn { return fault(g) },
	})
	return prim, ts.URL, g
}

// decideAsync posts one identified request off the test goroutine and
// delivers its status.
func decideAsync(url, tenant, reqID string, obs []observation) <-chan int {
	out := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(decideRequest{Tenant: tenant, Observations: obs, RequestID: reqID})
		resp, err := http.Post(url+"/v1/decide", "application/json", bytes.NewReader(body))
		if err != nil {
			out <- -1
			return
		}
		resp.Body.Close()
		out <- resp.StatusCode
	}()
	return out
}

// TestCommitAckWaitsForBothLegs holds the ship and the fsync of one request
// at once — which only happens if they run side by side — and proves no
// ack leaves until both are released, in either release order.
func TestCommitAckWaitsForBothLegs(t *testing.T) {
	for _, order := range []string{"sync-first", "ship-first"} {
		t.Run(order, func(t *testing.T) {
			_, url, g := newGatedPair(t, 0, func(g *commitGate) atomicio.FaultFn {
				return func(stage atomicio.Stage) error {
					if g.armed.Load() && stage == atomicio.StageSyncFile {
						g.syncIn <- struct{}{}
						<-g.syncGo
					}
					return nil
				}
			})
			stream := tenantStream("legs", 0, 2)
			if status, _, eresp := postDecideID(t, url, "legs", "warm", toWire(stream[0:1])); status != http.StatusOK {
				t.Fatalf("warm-up: status %d (%+v)", status, eresp)
			}
			g.armed.Store(true)
			acked := decideAsync(url, "legs", "held", toWire(stream[1:2]))
			for _, leg := range []struct {
				name string
				in   chan struct{}
			}{{"ship", g.shipIn}, {"fsync", g.syncIn}} {
				select {
				case <-leg.in:
				case <-time.After(5 * time.Second):
					t.Fatalf("%s leg never started while the other was held: the legs do not run side by side", leg.name)
				}
			}
			g.armed.Store(false)
			noAck := func(held string) {
				t.Helper()
				select {
				case status := <-acked:
					t.Fatalf("response (status %d) arrived while the %s was held", status, held)
				case <-time.After(50 * time.Millisecond):
				}
			}
			noAck("ship and the fsync were")
			if order == "sync-first" {
				g.releaseSync()
				noAck("ship")
				g.releaseShip()
			} else {
				g.releaseShip()
				noAck("fsync")
				g.releaseSync()
			}
			select {
			case status := <-acked:
				if status != http.StatusOK {
					t.Fatalf("ack status %d after both legs, want 200", status)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("no ack after both legs were released")
			}
		})
	}
}

// TestCommitBothLegsFail injects fsync EIO and a dropped ship on the same
// request: the decision is still acked, the tenant latches degraded, and the
// unshipped group shows as replica lag — with and without a commit window.
func TestCommitBothLegsFail(t *testing.T) {
	for _, window := range []time.Duration{0, time.Millisecond} {
		t.Run(fmt.Sprintf("window=%s", window), func(t *testing.T) {
			prim, url, g := newGatedPair(t, window, func(g *commitGate) atomicio.FaultFn {
				return func(stage atomicio.Stage) error {
					if g.armed.Load() && stage == atomicio.StageSyncFile {
						return syscall.EIO
					}
					return nil
				}
			})
			g.releaseShip() // the gate only fails here, it never holds
			prim.SetReplicaFailpoint(func() bool { return g.armed.Load() })
			stream := tenantStream("both", 0, 2)
			solo := soloThreads(t, stream)
			status, first, eresp := postDecideID(t, url, "both", "warm", toWire(stream[0:1]))
			if status != http.StatusOK {
				t.Fatalf("warm-up: status %d (%+v)", status, eresp)
			}
			g.armed.Store(true)
			status, out, eresp := postDecideID(t, url, "both", "faulted", toWire(stream[1:2]))
			if status != http.StatusOK {
				t.Fatalf("status %d (%+v) — neither a disk fault nor a lost ship may fail a decision", status, eresp)
			}
			if got := append(first.Threads, out.Threads...); fmt.Sprint(got) != fmt.Sprint(solo) {
				t.Fatalf("acked %v, want %v", got, solo)
			}
			prim.tn.mu.RLock()
			tn := prim.tn.m["both"]
			prim.tn.mu.RUnlock()
			tn.mu.Lock()
			degraded := tn.degraded
			tn.mu.Unlock()
			if degraded == "" {
				t.Fatal("tenant not latched degraded after fsync EIO")
			}
			if lag := prim.ReplicaLag(); lag <= 0 {
				t.Fatalf("replica lag %d after a dropped ship, want > 0", lag)
			}
		})
	}
}

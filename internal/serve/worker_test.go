package serve

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"moe"
	"moe/internal/sim"
	"moe/moeclient"
)

// goid is the calling goroutine's id, parsed from its stack header
// ("goroutine 123 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// goroutineStacks returns every live goroutine's stack, keyed by id.
func goroutineStacks() map[uint64]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[uint64]string)
	for _, g := range strings.Split(string(buf), "\n\n") {
		rest, ok := strings.CutPrefix(g, "goroutine ")
		if !ok {
			continue
		}
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			continue
		}
		if id, err := strconv.ParseUint(rest[:sp], 10, 64); err == nil {
			out[id] = g
		}
	}
	return out
}

// gidPolicy records the goroutine every Decide runs on, and panics once
// when armed.
type gidPolicy struct {
	p     moe.Policy
	rec   *gidLog
	armed *atomic.Bool
}

type gidLog struct {
	mu   sync.Mutex
	gids []uint64
}

func (l *gidLog) take() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.gids
	l.gids = nil
	return out
}

func (g *gidPolicy) Name() string       { return g.p.Name() }
func (g *gidPolicy) Unwrap() moe.Policy { return g.p }

func (g *gidPolicy) Decide(d sim.Decision) int {
	g.rec.mu.Lock()
	g.rec.gids = append(g.rec.gids, goid())
	g.rec.mu.Unlock()
	if g.armed.CompareAndSwap(true, false) {
		panic("injected fault")
	}
	return g.p.Decide(d)
}

// oneGoroutine requires every recorded Decide to have run on one goroutine
// and returns it.
func oneGoroutine(t *testing.T, what string, gids []uint64) uint64 {
	t.Helper()
	if len(gids) == 0 {
		t.Fatalf("%s: no decisions recorded", what)
	}
	for _, g := range gids {
		if g != gids[0] {
			t.Fatalf("%s: decisions ran on goroutines %d and %d, want one resident worker", what, gids[0], g)
		}
	}
	return gids[0]
}

// TestStreamDecideOneGoroutinePerGeneration pins the resident decide
// worker: every batch a tenant generation serves — stream groups and HTTP
// requests alike — runs on one goroutine; a panic-recycled tenant's next
// generation gets a fresh worker, and the abandoned one exits.
func TestStreamDecideOneGoroutinePerGeneration(t *testing.T) {
	rec := &gidLog{}
	armed := &atomic.Bool{}
	srv, ts := newTestServer(t, Config{
		BreakerBackoff: 10 * time.Millisecond,
		PolicyBuild: func(id string) (moe.Policy, error) {
			p, err := DefaultPolicyBuild(id)
			if err != nil {
				return nil, err
			}
			return &gidPolicy{p: p, rec: rec, armed: armed}, nil
		},
	})
	c := dialStream(t, ts.URL)
	const id = "resident"
	stream := tenantStream(id, 0, 64)
	for f := 0; f < 64; f++ {
		resp, err := c.Do(uint64(f), 0, id, "", stream[f:f+1])
		if err != nil || resp.Err != nil {
			t.Fatalf("frame %d: %v %v", f, err, resp)
		}
	}
	for i := 0; i < 3; i++ {
		mustDecide(t, ts.URL, id, toWire(tenantStream(id, 64+i, 1)))
	}
	first := oneGoroutine(t, "first generation", rec.take())

	// Panic-recycle: the faulting frame is answered with the typed fault,
	// the generation is abandoned, and once the breaker lets the tenant
	// back in, its fresh generation serves on a fresh worker.
	before := runtime.NumGoroutine()
	armed.Store(true)
	resp, err := c.Do(100, 0, id, "", tenantStream(id, 67, 1))
	if err != nil {
		t.Fatal(err)
	}
	if se, ok := resp.Err.(*moeclient.ServerError); !ok || se.Code != "tenant-fault" {
		t.Fatalf("armed frame: %+v, want tenant-fault", resp)
	}
	rec.take()
	deadline := time.Now().Add(2 * time.Second)
	for seq := uint64(101); ; seq++ {
		resp, err := c.Do(seq, 0, id, "", tenantStream(id, 0, 1))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant never re-admitted after the panic: %v", resp.Err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for f := 1; f < 8; f++ {
		if resp, err := c.Do(uint64(200+f), 0, id, "", tenantStream(id, f, 1)); err != nil || resp.Err != nil {
			t.Fatalf("probation frame %d: %v %v", f, err, resp)
		}
	}
	second := oneGoroutine(t, "second generation", rec.take())
	if second == first {
		t.Fatalf("recycled generation still decides on goroutine %d", first)
	}
	if v := srv.metrics.panics.Value(); v != 1 {
		t.Fatalf("serve_panics_recovered_total = %d, want 1", v)
	}

	// The abandoned generation's worker exits, and the goroutine count
	// settles back to where it stood before the recycle.
	deadline = time.Now().Add(2 * time.Second)
	for {
		_, alive := goroutineStacks()[first]
		n := runtime.NumGoroutine()
		if !alive && n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("old worker %d alive=%v, goroutines %d > %d before the recycle", first, alive, n, before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamWatchdogRecyclesWedgedTenant is the stream twin of
// TestWatchdogRecyclesWedgedTenant: a tenant wedged mid-decision costs its
// frame a deadline-exceeded error frame, a bystander on the same session is
// served throughout, the watchdog recycles the tenant, and its next frame
// is served by a fresh generation. Once the server is closed, no serve
// goroutine is left but the stalled worker.
func TestStreamWatchdogRecyclesWedgedTenant(t *testing.T) {
	preexisting := goroutineStacks()
	release := make(chan struct{})
	srv, ts := newTestServer(t, Config{
		WedgeTimeout:     100 * time.Millisecond,
		WatchdogInterval: 10 * time.Millisecond,
		PolicyBuild: func(id string) (moe.Policy, error) {
			p, err := DefaultPolicyBuild(id)
			if err != nil {
				return nil, err
			}
			if id == "wedger" {
				return StallAt(p, 5, release), nil
			}
			return p, nil
		},
	})
	t.Cleanup(func() { close(release) })
	c := dialStream(t, ts.URL)

	if resp, err := c.Do(1, 0, "wedger", "", tenantStream("wedger", 0, 3)); err != nil || resp.Err != nil {
		t.Fatalf("warm-up frame: %v %v", err, resp)
	}
	// This frame hits the stalled 5th decision and must miss its deadline.
	resp, err := c.Do(2, 150, "wedger", "", tenantStream("wedger", 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if se, ok := resp.Err.(*moeclient.ServerError); !ok || se.Code != "deadline-exceeded" {
		t.Fatalf("wedged frame: %+v, want deadline-exceeded", resp)
	}
	// The bystander on the same session is untouched while the wedger is
	// stuck.
	by := tenantStream("bystander", 0, 8)
	resp, err = c.Do(3, 0, "bystander", "", by)
	if err != nil || resp.Err != nil {
		t.Fatalf("bystander frame: %v %v", err, resp)
	}
	for i, want := range soloThreads(t, by) {
		if resp.Threads[i] != want {
			t.Fatalf("bystander decision %d: got %d, solo %d", i, resp.Threads[i], want)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.metrics.recycles.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if srv.metrics.recycles.Value() == 0 {
		t.Fatal("watchdog never recycled the wedged tenant")
	}
	// The next frame is served by the rebuilt generation: an ephemeral
	// tenant's fresh runtime counts from zero.
	resp, err = c.Do(4, 0, "wedger", "", tenantStream("wedger", 0, 3))
	if err != nil || resp.Err != nil {
		t.Fatalf("frame after recycle: %v %v", err, resp)
	}
	if resp.Decisions != 3 || len(resp.Threads) != 3 {
		t.Fatalf("frame after recycle: decisions %d threads %d, want a fresh generation's 3", resp.Decisions, len(resp.Threads))
	}
	srv.tn.mu.RLock()
	wedger := srv.tn.m["wedger"]
	srv.tn.mu.RUnlock()
	wedger.mu.Lock()
	gen := wedger.gen
	wedger.mu.Unlock()
	if gen != 2 {
		t.Fatalf("wedger built %d generations, want 2", gen)
	}

	c.Close()
	srv.Close()
	deadline = time.Now().Add(2 * time.Second)
	var left []string
	for {
		left = left[:0]
		stalled := 0
		for id, st := range goroutineStacks() {
			if _, ok := preexisting[id]; ok || id == goid() || !strings.Contains(st, "moe/internal/serve.") {
				continue
			}
			if strings.Contains(st, "(*stallPolicy).Decide") {
				stalled++
				continue
			}
			left = append(left, st)
		}
		if len(left) == 0 && stalled == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after Close: %d stalled workers, want 1; other serve goroutines left:\n%s",
				stalled, strings.Join(left, "\n\n"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamDeadlineCountedOnce: frames that miss their deadline behind a
// wedged tenant — one stalled mid-batch, two queued behind it for the
// decision slot, one expiring before the stalled frame and one after —
// count exactly once each in serve_deadline_exceeded_total, however many
// stages saw the deadline pass.
func TestStreamDeadlineCountedOnce(t *testing.T) {
	release := make(chan struct{})
	var unstall sync.Once
	srv, ts := newTestServer(t, Config{
		PolicyBuild: func(id string) (moe.Policy, error) {
			p, err := DefaultPolicyBuild(id)
			if err != nil {
				return nil, err
			}
			return StallAt(p, 5, release), nil
		},
	})
	t.Cleanup(func() { unstall.Do(func() { close(release) }) })
	c := dialStream(t, ts.URL)
	const id = "wedger"
	if resp, err := c.Do(1, 0, id, "", tenantStream(id, 0, 3)); err != nil || resp.Err != nil {
		t.Fatalf("warm-up frame: %v %v", err, resp)
	}
	expired := func(resp *moeclient.Response, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if se, ok := resp.Err.(*moeclient.ServerError); !ok || se.Code != "deadline-exceeded" {
			t.Fatalf("seq %d: %+v, want deadline-exceeded", resp.Seq, resp)
		}
	}
	// Seq 2 stalls at the tenant's 5th decision.
	expired(c.Do(2, 100, id, "", tenantStream(id, 3, 3)))
	for _, f := range []struct{ seq, ms uint64 }{{3, 50}, {4, 400}} {
		if err := c.Send(f.seq, f.ms, id, "", tenantStream(id, 6, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	expired(c.Recv())
	expired(c.Recv())
	// Unwedge the tenant and serve one more frame: the flusher serves it
	// only after it has given up on the expired group, so every stage that
	// saw those deadlines has run by the time it is answered.
	unstall.Do(func() { close(release) })
	if resp, err := c.Do(5, 2000, id, "", tenantStream(id, 6, 2)); err != nil || resp.Err != nil {
		t.Fatalf("frame after the stall: %v %v", err, resp)
	}
	if v := srv.metrics.deadlineExceeded.Value(); v != 3 {
		t.Fatalf("serve_deadline_exceeded_total = %d for 3 expired frames, want 3", v)
	}
}

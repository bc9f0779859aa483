package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"

	"moe"
	"moe/internal/checkpoint"
	"moe/internal/replica"
	"moe/internal/telemetry"
)

// tenantIDRe is the admitted tenant namespace: filesystem- and label-safe,
// bounded length, no leading separator (tenant IDs become checkpoint
// directory names and metric label values verbatim).
var tenantIDRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// tenantCore is one serving generation of a tenant: the runtime, its
// attached checkpoint store (nil when ephemeral or degraded), and the
// single decision slot that serializes access to the runtime's writer
// path. A core's generation, runtime, store and slot are fixed once
// published; fault recovery never repairs a core in place — it abandons
// the generation and builds the next one, so a goroutine wedged inside an
// old generation can never touch the new one.
//
// Every batch served on a core runs on the core's one resident decide
// worker (runOnWorker), so serving a batch starts no goroutine and the
// worker's stack, grown once, is reused by every later batch.
type tenantCore struct {
	gen   int
	rt    *moe.Runtime
	store *checkpoint.Store
	sem   chan struct{} // cap 1: the tenant's decision slot

	// work hands the decision-slot holder's batch to the worker. Cap 1 and
	// the slot make the send non-blocking: the previous batch releases the
	// slot only once the worker has taken it off the channel.
	work chan func()
	// retired is closed once, when the generation is abandoned (abandonLocked).
	retired chan struct{}
	// workMu guards working: whether the worker goroutine exists. It starts
	// on the core's first batch and exits once idle after retirement or
	// server stop; a later batch (a drain's in-flight tail) restarts it.
	workMu  sync.Mutex
	working bool
}

func newTenantCore(gen int, rt *moe.Runtime) *tenantCore {
	return &tenantCore{gen: gen, rt: rt, sem: make(chan struct{}, 1),
		work: make(chan func(), 1), retired: make(chan struct{})}
}

// runOnWorker runs job on the core's decide worker, starting the worker if
// it is not running. The caller holds core.sem; job releases it last.
func (s *Server) runOnWorker(core *tenantCore, job func()) {
	core.workMu.Lock()
	core.work <- job
	if !core.working {
		core.working = true
		go s.decideWorker(core)
	}
	core.workMu.Unlock()
}

// decideWorker is a core's resident decide goroutine. A wedged batch wedges
// it — and only it — while holding the generation's decision slot; once the
// batch returns and the generation is retired, the worker exits.
func (s *Server) decideWorker(core *tenantCore) {
	for {
		select {
		case job := <-core.work:
			job()
			continue
		case <-core.retired:
		case <-s.stop:
		}
		core.workMu.Lock()
		select {
		case job := <-core.work:
			core.workMu.Unlock()
			job()
			continue
		default:
		}
		core.working = false
		core.workMu.Unlock()
		return
	}
}

// tenant is the registry entry: identity, the current core (nil between
// generations), and the fault-isolation state machine around it.
type tenant struct {
	id  string
	dir string // checkpoint lineage directory; "" = ephemeral

	// mu guards everything below. It is never held across policy code,
	// store I/O, or channel waits — a wedged tenant must stay observable.
	mu        sync.Mutex
	core      *tenantCore
	gen       int // generation the *next* core will get
	brk       *breaker
	degraded  string    // latched reason for journal-less serving; "" = persistent
	busySince time.Time // non-zero while a decision is in flight on core
	recycles  int       // watchdog recycles, lifetime
	served    int64     // decisions served across generations
	dedup     *dedupWindow

	// rebuild serializes core construction (store open + resume can be
	// slow); waiters bail out at their group's deadline.
	rebuild chan struct{}

	// Coalescer state: validated requests of every transport queue on
	// coalPending and a single flusher goroutine (alive while coalActive)
	// drains them in merged DecideBatch groups, parking on coalWake when
	// there is nothing to drain. Guarded by coalMu, never t.mu — enqueue
	// must stay cheap and the flusher blocks on the decision slot.
	coalMu      sync.Mutex
	coalPending []*request
	coalActive  bool
	coalWake    chan struct{} // cap 1: one pending wake-up covers any number of enqueues

	// Per-tenant label set. Handles are created once at registration; past
	// the registry's cardinality cap they are detached (still usable,
	// never exposed) and counted in serve_labels_dropped_total.
	mDecisions *telemetry.Counter
	mState     *telemetry.Gauge // 0 ok, 1 quarantined, 2 probation
	mDegraded  *telemetry.Gauge
	mRecycles  *telemetry.Counter
}

// setStateLocked refreshes the tenant's state gauge; callers hold t.mu.
func (t *tenant) setStateLocked() {
	t.mState.Set(float64(t.brk.state))
}

func (t *tenant) setDegradedLocked(reason string) {
	t.degraded = reason
	if reason == "" {
		t.mDegraded.Set(0)
	} else {
		t.mDegraded.Set(1)
	}
}

// tenants is the registry. Reads (the per-request lookup) take the read
// lock; registration and drain take the write lock.
type tenants struct {
	mu sync.RWMutex
	m  map[string]*tenant
}

// snapshot returns the current tenant set, sorted by ID for deterministic
// iteration (drain order, listings, watchdog sweeps).
func (tn *tenants) snapshot() []*tenant {
	tn.mu.RLock()
	out := make([]*tenant, 0, len(tn.m))
	for _, t := range tn.m {
		out = append(out, t)
	}
	tn.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// tenant resolves id to its registry entry, registering it on first
// contact. Registration is cheap — directory and runtime construction are
// deferred to ensureCore so a flood of new tenant IDs cannot stall the
// registry lock behind disk I/O.
func (s *Server) tenant(id string) (*tenant, *apiError) {
	s.tn.mu.RLock()
	t := s.tn.m[id]
	s.tn.mu.RUnlock()
	if t != nil {
		return t, nil
	}
	if !tenantIDRe.MatchString(id) {
		return nil, &apiError{status: 400, code: "bad-tenant", msg: "tenant ID must match " + tenantIDRe.String()}
	}
	s.tn.mu.Lock()
	defer s.tn.mu.Unlock()
	if t = s.tn.m[id]; t != nil {
		return t, nil
	}
	if len(s.tn.m) >= s.cfg.MaxTenants {
		return nil, s.shed("tenant-capacity", 503, "tenant registry full", time.Second)
	}
	t = &tenant{
		id:       id,
		brk:      newBreaker(s.cfg.BreakerBackoff, s.cfg.BreakerBackoffMax, s.cfg.ProbationRequests),
		dedup:    newDedupWindow(s.cfg.DedupWindow),
		rebuild:  make(chan struct{}, 1),
		coalWake: make(chan struct{}, 1),
		mDecisions: s.reg.Counter("serve_tenant_decisions_total",
			"Decisions served, per tenant.", "tenant", id),
		mState: s.reg.Gauge("serve_tenant_state",
			"Tenant breaker state: 0 ok, 1 quarantined, 2 probation.", "tenant", id),
		mDegraded: s.reg.Gauge("serve_tenant_checkpoint_degraded",
			"1 when the tenant serves journal-less because its checkpoint store is unusable.", "tenant", id),
		mRecycles: s.reg.Counter("serve_tenant_recycles_total",
			"Watchdog recycles of a wedged tenant generation.", "tenant", id),
	}
	if s.cfg.CheckpointRoot != "" {
		t.dir = filepath.Join(s.cfg.CheckpointRoot, id)
	}
	s.tn.m[id] = t
	s.metrics.tenants.Set(float64(len(s.tn.m)))
	return t, nil
}

// ensureCore returns the tenant's current serving core, building one when
// the tenant is new or its last generation was abandoned (panic recycle,
// watchdog recycle). Builds serialize on t.rebuild; waiters give up when
// their request deadline fires rather than piling onto the registry.
func (s *Server) ensureCore(ctx context.Context, t *tenant) (*tenantCore, *apiError) {
	t.mu.Lock()
	core := t.core
	t.mu.Unlock()
	if core != nil {
		return core, nil
	}
	select {
	case t.rebuild <- struct{}{}:
	case <-ctx.Done():
		return nil, errDeadline
	}
	defer func() { <-t.rebuild }()
	t.mu.Lock()
	core, gen := t.core, t.gen
	t.mu.Unlock()
	if core != nil { // lost the race to another builder: reuse its core
		return core, nil
	}
	core, degraded, err := s.buildCore(t, gen)
	if err != nil {
		// The tenant cannot even construct a runtime (policy build
		// failure). Quarantine it like a panic so retries back off.
		t.mu.Lock()
		t.brk.trip(time.Now())
		t.setStateLocked()
		t.mu.Unlock()
		s.metrics.breakerTrips.Inc()
		s.logf("serve: tenant %s: build failed, quarantined: %v", t.id, err)
		return nil, &apiError{status: 503, code: "tenant-build-failed", msg: err.Error(), retryAfter: s.jit.spread(s.cfg.BreakerBackoff)}
	}
	t.mu.Lock()
	t.core = core
	t.gen = gen + 1
	t.setDegradedLocked(degraded)
	t.mu.Unlock()
	return core, nil
}

// buildCore constructs one tenant generation: fresh policy, runtime, and —
// when persistence is configured — the tenant's store resumed from its
// newest intact lineage. Failure routing is the point:
//
//   - filesystem failures (checkpoint.DiskError) degrade the tenant to
//     journal-less serving with the reason latched, they never refuse it;
//   - a poison journal — replay panics, errors, or wedges past the wedge
//     budget — falls back to a cold runtime on a fresh lineage, because a
//     corrupt past must not deny service in the present;
//   - only policy construction failure refuses the tenant (nothing to
//     serve with).
func (s *Server) buildCore(t *tenant, gen int) (core *tenantCore, degraded string, err error) {
	newRuntime := func() (*moe.Runtime, error) {
		p, err := s.cfg.PolicyBuild(t.id)
		if err != nil {
			return nil, err
		}
		return moe.NewRuntime(p, s.cfg.MaxThreads)
	}
	rt, err := newRuntime()
	if err != nil {
		return nil, "", err
	}
	core = newTenantCore(gen, rt)
	if t.dir == "" {
		return core, "", nil
	}
	store, err := checkpoint.OpenOptions(t.dir, s.storeOptions())
	if err != nil {
		if checkpoint.IsDiskError(err) {
			s.logf("serve: tenant %s: checkpoint store unusable, serving journal-less: %v", t.id, err)
			return core, err.Error(), nil
		}
		return nil, "", err
	}
	s.wireStore(t, store)
	ok, dedups := s.boundedResume(t, core.rt, store)
	if !ok {
		// Poison or unreadable history: abandon that runtime (the resume
		// goroutine may still be wedged inside it) and serve cold on a
		// fresh lineage in the same directory — the newer run number
		// supersedes the poisoned one for all future recoveries.
		if rt, err = newRuntime(); err != nil {
			return nil, "", err
		}
		core = newTenantCore(gen, rt)
		if store, err = checkpoint.OpenOptions(t.dir, s.storeOptions()); err != nil {
			if checkpoint.IsDiskError(err) {
				return core, err.Error(), nil
			}
			return nil, "", err
		}
		s.wireStore(t, store)
		dedups = nil
	}
	// The dedup window must mirror the runtime state it answers for: replace
	// it with exactly what recovery saw (possibly nothing) before serving.
	t.mu.Lock()
	t.dedup.load(dedups)
	t.mu.Unlock()
	err = core.rt.AttachStore(store, s.cfg.CheckpointEvery)
	if err == nil {
		// Commit the attach rotation's fresh epoch (the recovered dedup
		// window) before the first request can be answered from it.
		err = store.Sync()
	}
	if err != nil {
		// The attach snapshot could not be written (full disk) or the
		// policy is not capturable: the tenant still serves, journal-less.
		store.Close()
		s.logf("serve: tenant %s: checkpointing unavailable, serving journal-less: %v", t.id, err)
		return core, err.Error(), nil
	}
	core.store = store
	// Ship the attach snapshot (and anything folded behind it) right away so
	// the standby holds a resumable lineage even before the first decision.
	if s.primary != nil {
		if err := s.primary.Flush(t.id); err != nil {
			s.logf("serve: tenant %s: replication bootstrap flush: %v", t.id, err)
		}
	}
	return core, "", nil
}

// storeOptions is how every tenant store is opened: the configured sync
// policy, with run numbers floored at the promotion term so a promoted
// standby's new lineages always supersede anything the deposed primary
// managed to write before it was fenced. Every store shares the server's
// group committer, so with sync on an append never fsyncs: Store.Sync in
// commit is one fsync per committed batch, and the window shares it
// across tenants.
func (s *Server) storeOptions() checkpoint.Options {
	return checkpoint.Options{
		DisableSync: !s.cfg.CheckpointSync,
		MinRun:      int(s.promoted.Load()),
		GroupCommit: s.gcommit,
	}
}

// wireStore installs the serve-layer hooks on a freshly opened store, before
// any write can happen: fault injection (tests), the dedup window source
// (journal rotations persist the full window), and the replication shipper.
func (s *Server) wireStore(t *tenant, store *checkpoint.Store) {
	if s.cfg.JournalFault != nil {
		store.SetJournalFault(s.cfg.JournalFault(t.id))
	}
	store.SetDedupWindowSource(func() []checkpoint.DedupEntry {
		t.mu.Lock()
		defer t.mu.Unlock()
		return t.dedup.entries()
	})
	if s.primary != nil {
		store.SetShipper(s.primary.Shipper(t.id))
	}
}

// boundedResume replays the tenant's journal through the real policy under
// a recover and the wedge budget: a poison observation that panics or
// stalls the policy mid-replay must wedge at most this build attempt,
// never the server. ok false means the runtime and store must be abandoned —
// the replay goroutine may still hold both. On success, dedups is the
// recovered idempotency window (every identified request whose decisions
// the replayed state actually contains).
func (s *Server) boundedResume(t *tenant, rt *moe.Runtime, store *checkpoint.Store) (ok bool, dedups []checkpoint.DedupEntry) {
	type outcome struct {
		ok     bool
		dedups []checkpoint.DedupEntry
	}
	done := make(chan outcome, 1)
	go func() {
		var out outcome
		func() {
			defer func() {
				if p := recover(); p != nil {
					s.logf("serve: tenant %s: panic replaying journal (poison entry?): %v", t.id, p)
				}
			}()
			if rec, err := rt.Resume(store); err != nil {
				s.logf("serve: tenant %s: resume: %v", t.id, err)
			} else {
				out.ok = true
				out.dedups = rec.Dedups
			}
		}()
		done <- out
	}()
	select {
	case out := <-done:
		if !out.ok {
			s.metrics.resumeFailures.Inc()
		}
		return out.ok, out.dedups
	case <-time.After(s.cfg.WedgeTimeout):
		s.logf("serve: tenant %s: resume wedged past %s; starting cold", t.id, s.cfg.WedgeTimeout)
		s.metrics.resumeFailures.Inc()
		return false, nil
	}
}

// abandonLocked retires the serving generation: the next request builds a
// fresh core, and the old core's worker exits once its batch (if any)
// returns. Callers hold t.mu and have checked t.core != nil.
func (t *tenant) abandonLocked() {
	close(t.core.retired)
	t.core = nil
}

// serves reports whether core is still the tenant's serving generation.
func (t *tenant) serves(core *tenantCore) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.core == core
}

// enqueue hands a validated request to its tenant's coalescer and wakes the
// flusher, starting one if none is running. The flusher drains groups until
// the pending queue is empty, then parks; requests that arrive while a
// group is being decided merge into the next group.
func (s *Server) enqueue(r *request) {
	t := r.tenant
	t.coalMu.Lock()
	t.coalPending = append(t.coalPending, r)
	spawn := !t.coalActive
	t.coalActive = true
	t.coalMu.Unlock()
	if spawn {
		go s.flusher(t)
		return
	}
	select {
	case t.coalWake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// flusher is the tenant's resident flusher. It exits only once the server
// has stopped and the queue is empty; a later enqueue (a drain's in-flight
// tail) starts a fresh one.
func (s *Server) flusher(t *tenant) {
	for {
		t.coalMu.Lock()
		group := t.coalPending
		t.coalPending = nil
		t.coalMu.Unlock()
		if len(group) > 0 {
			s.serveGroup(t, group)
			continue
		}
		select {
		case <-t.coalWake:
			continue
		case <-s.stop:
		}
		t.coalMu.Lock()
		if len(t.coalPending) == 0 {
			t.coalActive = false
			t.coalMu.Unlock()
			return
		}
		t.coalMu.Unlock()
	}
}

// serveGroup serves one coalesced group on tenant t: breaker gate, core
// acquisition, dedup pass, then one merged DecideBatch whose commit is
// shared by every member. The batch runs on the generation's decide worker
// so a wedged tenant wedges at most this group: the flusher gives up 50 ms
// past the group's latest deadline — every member's waiter has answered
// deadline-exceeded by then — and serves the next group, on this
// generation if it recovers, on the rebuilt one otherwise; the watchdog
// owns the stuck generation.
func (s *Server) serveGroup(t *tenant, group []*request) {
	t.mu.Lock()
	ok, retry := t.brk.admit(time.Now())
	t.setStateLocked()
	t.mu.Unlock()
	if !ok {
		failGroup(group, s.shedN(len(group), "quarantined", http.StatusServiceUnavailable, "tenant quarantined after fault", retry))
		return
	}
	latest := group[0].deadline
	for _, r := range group[1:] {
		if r.deadline.After(latest) {
			latest = r.deadline
		}
	}
	ctx, cancel := context.WithDeadline(context.Background(), latest)
	defer cancel()

	var core *tenantCore
	for attempt := 0; core == nil; attempt++ {
		c, aerr := s.ensureCore(ctx, t)
		if aerr != nil {
			failGroup(group, aerr)
			return
		}
		select {
		case c.sem <- struct{}{}:
		case <-ctx.Done():
			failGroup(group, errDeadline)
			return
		}
		// The generation may have been recycled while we waited on its
		// slot; serving on it would resurrect an abandoned timeline.
		t.mu.Lock()
		if t.core == c {
			core = c
			t.busySince = time.Now()
		}
		t.mu.Unlock()
		if core == nil {
			<-c.sem
			if attempt == 2 {
				failGroup(group, s.shedN(len(group), "recycled", http.StatusServiceUnavailable, "tenant recycling", s.cfg.BreakerBackoff))
				return
			}
		}
	}

	// Dedup pass under the tenant lock, holding the decision slot so no
	// lookup races a twin's commit — whether the retry hits this process, a
	// restarted one, or a promoted standby. Window hits are answered at
	// once; an in-group duplicate of an executing ID is marked deduped and
	// answered from the freshly committed window after the batch. The
	// members still waiting are compacted into pending.
	pending := group[:0]
	var seen map[string]bool
	total, exec := 0, 0
	t.mu.Lock()
	for _, r := range group {
		if s.cfg.DedupWindow > 0 && r.reqID != "" {
			if hit, ok := t.dedup.lookup(r.reqID); ok {
				s.dedupHit(r, hit)
				continue
			}
			if seen[r.reqID] {
				r.deduped = true
				pending = append(pending, r)
				continue
			}
			if seen == nil {
				seen = make(map[string]bool)
			}
			seen[r.reqID] = true
		}
		pending = append(pending, r)
		total += len(r.obs)
		exec++
	}
	if exec == 0 {
		t.busySince = time.Time{}
		t.mu.Unlock()
		<-core.sem
		return
	}
	t.mu.Unlock()
	s.stream.coalesced.Observe(float64(exec))

	done := make(chan struct{})
	s.runOnWorker(core, func() {
		defer close(done)
		merged := make([]moe.Observation, 0, total)
		for _, r := range pending {
			if !r.deduped {
				merged = append(merged, r.obs...)
			}
		}
		var threads []int
		var decisions int64
		var panicked string
		func() {
			defer func() {
				if p := recover(); p != nil {
					panicked, threads = fmt.Sprint(p), nil
				}
			}()
			threads = core.rt.DecideBatch(merged)
			decisions = int64(core.rt.Decisions())
		}()
		aerr := s.commitGroup(t, core, pending, threads, decisions, panicked)
		s.finishDecide(t, core, threads, decisions, panicked)
		s.fillGroup(t, pending, aerr)
		<-core.sem
	})
	tm := time.NewTimer(time.Until(latest) + 50*time.Millisecond)
	select {
	case <-done:
		tm.Stop()
	case <-tm.C:
	}
}

// dedupHit answers r from the idempotency window: the decisions originally
// acked under its request ID.
func (s *Server) dedupHit(r *request, hit checkpoint.DedupEntry) {
	r.decisions, r.threads, r.deduped = int64(hit.Decisions), hit.Threads, true
	s.metrics.dedupHits.Inc()
	close(r.done)
}

// commitGroup is the one commit point, run on the decide worker once a
// group's batch returned. Per-member decision counts and thread sub-slices
// fall out of prefix sums over the merged result (DecideBatch answers one
// decision per observation, in order); each identified member's dedup
// marker is journaled behind the batch's entries, then the whole group
// commits once — before any member's ack can leave. It returns the refusal
// every member gets instead of an ack, if any.
func (s *Server) commitGroup(t *tenant, core *tenantCore, group []*request, threads []int, decisions int64, panicked string) *apiError {
	if panicked != "" {
		return &apiError{status: http.StatusInternalServerError, code: "tenant-fault",
			msg: "tenant decision faulted; tenant quarantined", retryAfter: s.jit.spread(s.cfg.BreakerBackoff)}
	}
	// A generation the watchdog abandoned under the batch journals nothing
	// more: its run is superseded.
	serving := t.serves(core)
	cerr := core.rt.CheckpointErr()
	off := 0
	count := decisions - int64(len(threads))
	for _, r := range group {
		if r.deduped {
			continue
		}
		n := len(r.obs)
		r.threads = threads[off : off+n]
		off += n
		count += int64(n)
		r.decisions = count
		if serving && r.reqID != "" {
			cerr = s.markDedup(t, core, checkpoint.DedupEntry{ID: r.reqID, Decisions: int(count), Threads: r.threads}, cerr)
		}
	}
	if serving && s.commit(t, core, cerr) {
		return s.shedN(len(group), "deposed", http.StatusServiceUnavailable,
			"deposed by promoted standby; decision not acknowledged", time.Second)
	}
	return nil
}

// fillGroup answers every member still waiting once the group is settled:
// the shared refusal, if any; else each executed member's own result, and
// each in-group duplicate from the window its twin just committed.
func (s *Server) fillGroup(t *tenant, group []*request, aerr *apiError) {
	if aerr != nil {
		failGroup(group, aerr)
		return
	}
	for _, r := range group {
		if !r.deduped {
			close(r.done)
			continue
		}
		t.mu.Lock()
		hit, ok := t.dedup.lookup(r.reqID)
		t.mu.Unlock()
		if ok {
			s.dedupHit(r, hit)
		} else {
			// The twin it deferred to committed, but the window has already
			// evicted it (pathologically small window): refuse rather than
			// decide twice under one ID.
			r.fail(&apiError{status: http.StatusConflict, code: "dedup-evicted",
				msg: "duplicate request id raced its twin out of the dedup window"})
		}
	}
}

// markDedup journals one identified request's dedup marker (unless the
// journal has already failed: cerr) and admits it to the in-memory window.
// It returns the journal's error so far.
func (s *Server) markDedup(t *tenant, core *tenantCore, entry checkpoint.DedupEntry, cerr error) error {
	if core.store != nil && cerr == nil {
		if err := core.store.AppendDedup(entry); err != nil {
			s.logf("serve: tenant %s: journal dedup marker: %v", t.id, err)
			cerr = err
		}
	}
	t.mu.Lock()
	if t.core == core {
		t.dedup.add(entry)
	}
	t.mu.Unlock()
	return cerr
}

// commit makes a group's journaled entries durable: it returns only when
// both durable legs are done, so no ack can leave before them, and reports
// whether a promoted standby fenced the ship (deposed: the ack must be
// withheld — it would fork acked history).
//
//   - The replica ship starts first and runs alongside the local commit. A
//     failed ship is absorbed — semi-synchronous — and surfaces as replica
//     lag, not a client error.
//   - Store.Sync is the group's one journal fsync, shared across tenants
//     inside the group-commit window.
//
// A journal write or fsync failure (cerr) latches the tenant degraded:
// acked decisions are never lost — they live in memory and in the shipped
// stream — but the local journal has stopped.
func (s *Server) commit(t *tenant, core *tenantCore, cerr error) (deposed bool) {
	var shipped chan error
	if s.primary != nil {
		shipped = make(chan error, 1)
		go func() { shipped <- s.primary.Flush(t.id) }()
	}
	if core.store != nil && cerr == nil {
		if err := core.store.Sync(); err != nil {
			s.logf("serve: tenant %s: journal commit sync: %v", t.id, err)
			cerr = err
		}
	}
	if shipped != nil {
		if err := <-shipped; err != nil {
			deposed = errors.Is(err, replica.ErrDeposed)
			s.logf("serve: tenant %s: replication flush: %v", t.id, err)
		}
	}
	if core.store != nil && cerr != nil && checkpoint.IsDiskError(cerr) {
		t.mu.Lock()
		latch := t.core == core && t.degraded == ""
		if latch {
			t.setDegradedLocked(cerr.Error())
		}
		t.mu.Unlock()
		if latch {
			s.logf("serve: tenant %s: journal failed mid-batch, serving journal-less: %v", t.id, cerr)
		}
	}
	return deposed
}

// finishDecide runs on the decide worker after the batch returned or
// panicked — whether or not any member's waiter is still waiting (they may
// have timed out long ago). It is the single place tenant health is
// judged.
func (s *Server) finishDecide(t *tenant, core *tenantCore, threads []int, decisions int64, panicked string) {
	t.mu.Lock()
	current := t.core == core
	if current {
		t.busySince = time.Time{}
	}
	if panicked == "" {
		if current {
			t.brk.succeed()
			t.setStateLocked()
			t.served = decisions
		}
		t.mu.Unlock()
		if current {
			n := int64(len(threads))
			t.mDecisions.Add(n)
			s.metrics.decisions.Add(n)
		}
		return
	}
	// Panic: recovered, and this tenant alone pays for it. Open the
	// breaker (exponential backoff, probation on re-entry) and abandon the
	// generation — probation serves a fresh runtime resumed from the last
	// checkpoint, exactly like a crashed process restarting.
	var quarantine time.Duration
	if current {
		t.brk.trip(time.Now())
		quarantine = t.brk.backoff / 2 // trip already doubled it
		t.abandonLocked()
		t.setStateLocked()
	}
	t.mu.Unlock()
	s.metrics.panics.Inc()
	if current {
		s.metrics.breakerTrips.Inc()
		s.logf("serve: tenant %s: decision panic, quarantined %s (gen %d abandoned): %v",
			t.id, quarantine, core.gen, panicked)
		if core.store != nil {
			// Safe to close here: this goroutine was the generation's only
			// store writer, and it is done writing.
			core.store.Close()
		}
	}
}

// sweepWedged is the watchdog pass: any tenant whose in-flight decision
// has outlived the wedge budget gets its generation abandoned. The
// generation's wedged worker keeps its runtime and store — closing the
// store under it would race — while the next request rebuilds from the last checkpoint on a
// fresh lineage; the abandoned generation's journal writes land on a
// superseded run number and are ignored by recovery from then on.
func (s *Server) sweepWedged(now time.Time) {
	for _, t := range s.tn.snapshot() {
		t.mu.Lock()
		wedged := t.core != nil && !t.busySince.IsZero() && now.Sub(t.busySince) > s.cfg.WedgeTimeout
		var gen int
		if wedged {
			gen = t.core.gen
			t.abandonLocked()
			t.busySince = time.Time{}
			t.recycles++
		}
		t.mu.Unlock()
		if wedged {
			t.mRecycles.Inc()
			s.metrics.recycles.Inc()
			s.logf("serve: tenant %s: wedged past %s, recycled (gen %d abandoned)", t.id, s.cfg.WedgeTimeout, gen)
		}
	}
}

func (s *Server) watchdogLoop() {
	tick := time.NewTicker(s.cfg.WatchdogInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case now := <-tick.C:
			s.sweepWedged(now)
		}
	}
}

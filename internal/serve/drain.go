package serve

import (
	"fmt"
	"time"
)

// DrainReport is what a graceful shutdown accomplished, tenant by tenant.
type DrainReport struct {
	// Tenants registered at drain time.
	Tenants int
	// Checkpointed tenants got a final snapshot written and their store
	// closed cleanly.
	Checkpointed int
	// Ephemeral tenants had no persistence configured (nothing to flush).
	Ephemeral int
	// JournalOnly tenants could not take a final snapshot — degraded
	// store, or a snapshot write failure during the drain itself — but
	// their write-ahead journal already covers every served decision, so a
	// restart still resumes them exactly.
	JournalOnly []string
	// Wedged tenants had a decision still running when the window closed;
	// their journal covers everything up to and including the wedged
	// observation.
	Wedged []string
	// Errors are the snapshot failures behind JournalOnly entries that
	// were not pre-existing degradation.
	Errors []string
	// Elapsed is wall time for the whole drain; TimedOut reports whether
	// in-flight requests were still running when the window closed.
	Elapsed  time.Duration
	TimedOut bool
}

// Clean reports whether every persistent tenant reached disk — by final
// snapshot or by an already-complete journal — with no new write failures.
func (r *DrainReport) Clean() bool {
	return len(r.Errors) == 0 && !r.TimedOut
}

// Drain is the graceful shutdown: stop admitting (requests arriving from
// here on shed with 503 "draining"), wait out in-flight requests, then
// checkpoint and close every tenant — all bounded by window (0 selects
// Config.DrainWindow). Only the first call drains; later calls error.
//
// A wedged tenant cannot hold the window hostage: its slot acquisition is
// bounded by the time remaining, and skipping its final snapshot is safe
// because the write-ahead journal has already recorded every observation
// it ever served (that is what makes restart-after-drain bit-identical
// even for the tenants drain could not touch).
func (s *Server) Drain(window time.Duration) (*DrainReport, error) {
	if window <= 0 {
		window = s.cfg.DrainWindow
	}
	if !s.draining.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("serve: already draining")
	}
	start := time.Now()
	s.Close() // watchdog off: recycling mid-drain would race the snapshots
	deadline := start.Add(window)

	// Phase 1: let in-flight requests finish, bounded. Requests past their
	// own deadline have already returned 504 and released their slots; a
	// wedged decision goroutine does not hold the inflight group, only its
	// tenant's slot — phase 2 handles it per tenant.
	flushed := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(flushed)
	}()
	rep := &DrainReport{}
	select {
	case <-flushed:
	case <-time.After(time.Until(deadline)):
		rep.TimedOut = true
	}

	// Phase 2: final checkpoint per tenant, deterministic order.
	for _, t := range s.tn.snapshot() {
		rep.Tenants++
		s.drainTenant(t, deadline, rep)
	}
	// Stream sessions close last: their in-flight frames were flushed with
	// the inflight group in phase 1 (late arrivals got "draining" error
	// frames), so by here every promised response has been written and the
	// client sees a clean EOF instead of a mid-response reset.
	s.closeStreamSessions()
	rep.Elapsed = time.Since(start)
	s.metrics.drainSeconds.Set(rep.Elapsed.Seconds())
	if rep.Clean() {
		s.metrics.drainClean.Set(1)
	} else {
		s.metrics.drainClean.Set(0)
	}
	s.logf("serve: drained %d tenants in %s: %d checkpointed, %d ephemeral, %d journal-only, %d wedged",
		rep.Tenants, rep.Elapsed.Round(time.Millisecond), rep.Checkpointed, rep.Ephemeral,
		len(rep.JournalOnly), len(rep.Wedged))
	return rep, nil
}

func (s *Server) drainTenant(t *tenant, deadline time.Time, rep *DrainReport) {
	t.mu.Lock()
	core := t.core
	degraded := t.degraded
	t.mu.Unlock()
	switch {
	case core == nil && t.dir == "":
		rep.Ephemeral++
		return
	case core == nil && degraded != "":
		// Abandoned generation that was serving journal-less: nothing of
		// it ever reached disk.
		rep.JournalOnly = append(rep.JournalOnly, t.id)
		return
	case core == nil:
		// Never built (registered but unserved), or abandoned by a recycle
		// with no rebuild since: the lineage on disk is already the
		// freshest state there is.
		rep.Checkpointed++
		return
	case core.store == nil && t.dir == "":
		rep.Ephemeral++
		return
	case core.store == nil:
		// Degraded generation: nothing attached to flush.
		rep.JournalOnly = append(rep.JournalOnly, t.id)
		if degraded == "" {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: no store attached", t.id))
		}
		return
	}
	// Take the tenant's decision slot so the final snapshot cannot race a
	// batch, but never past the window: a wedged batch forfeits its
	// snapshot, not the drain.
	wait := time.Until(deadline)
	if wait < 10*time.Millisecond {
		wait = 10 * time.Millisecond
	}
	select {
	case core.sem <- struct{}{}:
	case <-time.After(wait):
		rep.Wedged = append(rep.Wedged, t.id)
		return
	}
	defer func() { <-core.sem }()
	st, err := core.rt.Snapshot()
	if err == nil {
		err = core.store.WriteSnapshot(st)
	}
	if cerr := core.store.Close(); err == nil && cerr != nil {
		err = cerr
	}
	// Ship whatever the final snapshot produced: a drained primary should
	// leave its standby holding the exact lineage it wrote last.
	if s.primary != nil {
		if ferr := s.primary.Flush(t.id); ferr != nil {
			s.logf("serve: drain: tenant %s replication flush: %v", t.id, ferr)
		}
	}
	t.mu.Lock()
	if t.core == core {
		t.abandonLocked() // the store is closed; this generation must not serve again
	}
	t.mu.Unlock()
	if err != nil {
		rep.JournalOnly = append(rep.JournalOnly, t.id)
		rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", t.id, err))
		s.logf("serve: drain: tenant %s final snapshot failed (journal still covers it): %v", t.id, err)
		return
	}
	rep.Checkpointed++
}

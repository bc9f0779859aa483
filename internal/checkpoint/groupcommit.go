package checkpoint

import (
	"os"
	"sync"
	"sync/atomic"
	"time"

	"moe/internal/atomicio"
	"moe/internal/telemetry"
)

// GroupCommitter amortizes journal fsyncs across tenants: stores that
// share a committer skip the per-append fsync and instead make their
// batch durable through Store.Sync, which parks the caller for at most
// one flush window and then issues a single fsync per dirty file on
// behalf of every batch that arrived inside the window.
//
// Durability semantics are unchanged at the ack boundary: the serving
// layer calls Store.Sync before acknowledging a batch, so commit-before-ack
// holds exactly as it does with per-append fsync — the only thing that
// moved is how many appends one fsync covers. A window of zero is the
// pass-through committer: one fsync per Store.Sync, that is per committed
// batch, with no parking. A store with no committer fsyncs per append.
//
// An fsync error fans out to every waiter whose batch shared it: each of
// their tenants latches DiskError-degraded serving, the same path a
// per-append fsync failure takes.
type GroupCommitter struct {
	window time.Duration

	mu       sync.Mutex
	pending  map[*os.File]*pendingSync
	sleeping bool

	fsyncs atomic.Int64 // fsyncs actually issued
	saved  atomic.Int64 // fsyncs per-append sync would have issued, minus issued

	mFsyncs *telemetry.Counter
	mSaved  *telemetry.Counter
}

// pendingSync accumulates one window's claims against one file: the
// waiters to wake and the total appends their batches deferred (what
// per-append fsync would have cost).
type pendingSync struct {
	waiters []chan error
	batched int64
}

// NewGroupCommitter returns a committer with the given flush window. A
// window <= 0 yields a pass-through committer (every Sync fsyncs
// immediately — one fsync per batch instead of per append, no parking).
func NewGroupCommitter(window time.Duration) *GroupCommitter {
	return &GroupCommitter{window: window, pending: make(map[*os.File]*pendingSync)}
}

// SetMetrics attaches fsync counters (issued, saved). Call before first use.
func (g *GroupCommitter) SetMetrics(fsyncs, saved *telemetry.Counter) {
	g.mFsyncs, g.mSaved = fsyncs, saved
}

// Window returns the configured flush window.
func (g *GroupCommitter) Window() time.Duration { return g.window }

// Stats returns fsyncs issued and fsyncs saved by sharing, lifetime.
func (g *GroupCommitter) Stats() (fsyncs, saved int64) {
	return g.fsyncs.Load(), g.saved.Load()
}

// Sync makes everything written to f durable, sharing the fsync with every
// other Sync(f) caller inside the same flush window. batched is how many
// appends this batch deferred — what per-append fsync would have cost; the
// committer issues one fsync for all of them and counts the difference as
// saved. It blocks for at most one window plus the fsync itself.
func (g *GroupCommitter) Sync(f *os.File, batched int64) error {
	if batched < 1 {
		batched = 1
	}
	if g.window <= 0 {
		g.account(1, batched-1)
		return f.Sync()
	}
	ch := make(chan error, 1)
	g.mu.Lock()
	p := g.pending[f]
	if p == nil {
		p = &pendingSync{}
		g.pending[f] = p
	}
	p.waiters = append(p.waiters, ch)
	p.batched += batched
	if !g.sleeping {
		g.sleeping = true
		go g.flushAfterWindow()
	}
	g.mu.Unlock()
	return <-ch
}

func (g *GroupCommitter) account(fsyncs, saved int64) {
	g.fsyncs.Add(fsyncs)
	g.saved.Add(saved)
	if g.mFsyncs != nil {
		g.mFsyncs.Add(fsyncs)
	}
	if g.mSaved != nil {
		g.mSaved.Add(saved)
	}
}

// flushAfterWindow sleeps out the window, then fsyncs each dirty file once
// and wakes everyone whose batch it covered.
func (g *GroupCommitter) flushAfterWindow() {
	time.Sleep(g.window)
	g.mu.Lock()
	batch := g.pending
	g.pending = make(map[*os.File]*pendingSync, len(batch))
	g.sleeping = false
	g.mu.Unlock()
	for f, p := range batch {
		err := f.Sync()
		g.account(1, p.batched-1)
		for _, ch := range p.waiters {
			ch <- err
		}
	}
}

// Sync is the batch commit point for group-committed stores: it makes every
// append since the last Sync durable before returning. On a store without a
// committer (or with sync disabled) it is a no-op — the appends were
// already fsynced inline (or deliberately not at all).
func (s *Store) Sync() error {
	if !s.sync || s.gc == nil || !s.dirty || s.journal == nil {
		return nil
	}
	if err := s.fault(atomicio.StageSyncFile); err != nil {
		return diskErr("sync", s.journal.Name(), err)
	}
	if err := s.gc.Sync(s.journal, int64(s.dirtyCount)); err != nil {
		return diskErr("sync", s.journal.Name(), err)
	}
	s.dirty = false
	s.dirtyCount = 0
	return nil
}

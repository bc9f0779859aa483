// Package replica is the hot-standby replication layer for the moed
// decision daemon: a primary streams every committed checkpoint artifact —
// snapshots, journal rotations, individual journal records — per tenant to
// a standby over HTTP, and the standby applies them into its own
// checkpoint lineages so it is always one Resume away from serving.
//
// The design leans entirely on the byte-identity discipline of
// internal/checkpoint: what ships is the exact CRC-framed bytes the
// primary journals (checkpoint.Shipment), the standby re-validates
// every frame with the same machinery recovery uses, and a promoted
// standby therefore replays to exactly the state the primary would have
// recovered to itself. Correctness of failover reduces to correctness of
// crash recovery, which PR 3's matrices already pin.
//
// Grouping and ordering. The primary buffers shipments per tenant and
// flushes a whole batch's worth as one HTTP POST before the client is acked
// (Primary.Flush); the serving layer runs that flush alongside the batch's
// local journal fsync and acks only when both are done. The standby
// applies a group atomically-in-order: any defect or gap rejects the whole
// group with no partial apply of the remainder. A rejected or lost flush
// leaves the standby one group behind; the next flush detects the gap
// (HTTP 409 from the standby's ordering check) and heals by resending the
// folded lineage — newest snapshot plus the full current journal — as a
// full resynchronization. Replication is thus semi-synchronous: a flush
// failure never blocks serving (the primary keeps the lineage buffered and
// resyncs on the next flush), it only widens the window a failover could
// lose, which the lag metrics make visible.
//
// Fencing. Every ship request carries the primary's term (X-Moe-Term). A
// standby that has been promoted — or has seen a higher term — refuses
// lower-term shipments with HTTP 403, and the primary latches Deposed: its
// serving layer sheds from then on. The promoted standby floors its store
// run numbers at its term (checkpoint.Options.MinRun), so in the shared
// lineage ordering every run the new primary writes outranks anything the
// deposed primary replicated, mirroring the generation-abandonment trick
// the serving envelope uses for wedged tenants.
package replica

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"moe/internal/checkpoint"
	"moe/internal/telemetry"
)

// ErrDeposed reports that this primary has been fenced by a promoted
// standby: a ship request was refused with a higher term. The serving
// layer must stop acking decisions.
var ErrDeposed = errors.New("replica: primary deposed by promoted standby")

// errOutOfOrder is the client-side reflection of the standby's 409: the
// standby's applier is not at the position this group assumes.
var errOutOfOrder = errors.New("replica: standby out of sync")

const (
	shipPath   = "/replica/v1/ship"
	statusPath = "/replica/v1/status"

	termHeader = "X-Moe-Term"
	fullHeader = "X-Moe-Full"

	// maxShipBody bounds one replication group on the receiving side.
	maxShipBody = 64 << 20
)

// Primary ships checkpoint artifacts for any number of tenants to one
// standby. Shipper hooks buffer synchronously under the tenant's decision
// lock; Flush does the network round trip. Methods are safe for concurrent
// use across tenants; per-tenant calls are serialized by the caller (the
// serving layer holds one decision slot per tenant).
type Primary struct {
	base   string // standby base URL, e.g. http://127.0.0.1:9276
	client *http.Client
	logf   func(format string, args ...any)

	term    atomic.Uint64
	deposed atomic.Bool

	mu      sync.Mutex
	tenants map[string]*lineage

	// failpoint, when set, is consulted before each send; returning true
	// simulates a network drop (tests only).
	failMu    sync.Mutex
	failpoint func() bool

	pendingTotal atomic.Int64

	shipments  *telemetry.Counter
	shipErrs   *telemetry.Counter
	resyncs    *telemetry.Counter
	fenced     *telemetry.Counter
	pendingG   *telemetry.Gauge
	termG      *telemetry.Gauge
	flushSecs  *telemetry.Histogram
	groupBytes *telemetry.Histogram
}

// lineage is the folded replication state of one tenant: the newest
// snapshot, the journal records since it (acked by the standby), and the
// not-yet-flushed pending tail.
type lineage struct {
	mu      sync.Mutex
	curRun  int
	snap    *checkpoint.Shipment
	recs    []checkpoint.Shipment // journal-open + records since snap, acked
	pending []checkpoint.Shipment
	synced  bool // standby confirmed up to recs; pending may follow incrementally
}

// NewPrimary returns a primary shipping to the standby at base (scheme +
// host, no path). reg may be nil; logf may be nil.
func NewPrimary(base string, reg *telemetry.Registry, logf func(string, ...any)) *Primary {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	p := &Primary{
		base:    base,
		client:  &http.Client{Timeout: 5 * time.Second},
		logf:    logf,
		tenants: make(map[string]*lineage),
	}
	p.term.Store(1)
	if reg != nil {
		p.shipments = reg.Counter("replica_shipments_total", "Checkpoint artifacts buffered for replication.", "", "")
		p.shipErrs = reg.Counter("replica_ship_errors_total", "Replication flushes that failed.", "", "")
		p.resyncs = reg.Counter("replica_resyncs_total", "Full lineage resynchronizations sent.", "", "")
		p.fenced = reg.Counter("replica_fenced_total", "Ship requests refused by a higher term.", "", "")
		p.pendingG = reg.Gauge("replica_pending_shipments", "Artifacts buffered but not yet acked by the standby.", "", "")
		p.termG = reg.Gauge("replica_term", "This primary's fencing term.", "role", "primary")
		p.termG.Set(1)
		p.flushSecs = reg.Histogram("replica_flush_seconds", "Replication flush round-trip latency.", nil)
		p.groupBytes = reg.Histogram("replica_group_bytes", "Bytes per replication group.", nil)
	}
	return p
}

// SetTerm sets the fencing term stamped on every ship request. A freshly
// promoted server chains its standby's term through here.
func (p *Primary) SetTerm(term uint64) {
	p.term.Store(term)
	p.termG.Set(float64(term))
}

// Term returns the current fencing term.
func (p *Primary) Term() uint64 { return p.term.Load() }

// Deposed reports whether a standby has fenced this primary.
func (p *Primary) Deposed() bool { return p.deposed.Load() }

// SetFailpoint installs (or clears, with nil) a hook consulted before each
// network send; returning true drops the send as if the network ate it.
// Tests use it to create replication gaps deterministically.
func (p *Primary) SetFailpoint(fn func() bool) {
	p.failMu.Lock()
	p.failpoint = fn
	p.failMu.Unlock()
}

func (p *Primary) dropSend() bool {
	p.failMu.Lock()
	fn := p.failpoint
	p.failMu.Unlock()
	return fn != nil && fn()
}

// Lag returns the number of buffered artifacts not yet acked by the
// standby, across all tenants.
func (p *Primary) Lag() int64 { return p.pendingTotal.Load() }

func (p *Primary) lineageFor(tenant string) *lineage {
	p.mu.Lock()
	defer p.mu.Unlock()
	ln := p.tenants[tenant]
	if ln == nil {
		ln = &lineage{}
		p.tenants[tenant] = ln
	}
	return ln
}

// Shipper returns the checkpoint shipping hook for one tenant, suitable
// for Store.SetShipper. It copies the artifact bytes and buffers them; no
// I/O happens until Flush.
func (p *Primary) Shipper(tenant string) func(checkpoint.Shipment) {
	ln := p.lineageFor(tenant)
	return func(sh checkpoint.Shipment) {
		sh.Data = append([]byte(nil), sh.Data...)
		ln.mu.Lock()
		defer ln.mu.Unlock()
		// A shipment from a run older than the lineage's current run is a
		// late write from an abandoned store generation (a wedged tenant
		// the watchdog recycled); it must not splice into the stream.
		if sh.Run < ln.curRun {
			return
		}
		if sh.Run > ln.curRun {
			if sh.Kind != checkpoint.ShipSnapshot {
				// A fresh store always announces itself with a snapshot
				// (AttachStore writes one immediately); journal artifacts
				// of a run we have no snapshot for cannot seed a standby.
				return
			}
			ln.curRun = sh.Run
		}
		ln.pending = append(ln.pending, sh)
		p.pendingTotal.Add(1)
		p.pendingG.Set(float64(p.pendingTotal.Load()))
		p.shipments.Inc()
	}
}

// Flush sends the tenant's buffered artifacts to the standby as one
// atomic group, resynchronizing the full folded lineage if the standby
// reports a gap. It is called after a batch commits locally and before the
// client is acked. A returned error (other than ErrDeposed) means the
// standby is behind but serving may continue; the next Flush heals.
func (p *Primary) Flush(tenant string) error {
	if p.deposed.Load() {
		return ErrDeposed
	}
	ln := p.lineageFor(tenant)
	ln.mu.Lock()
	defer ln.mu.Unlock()

	var start time.Time
	if p.flushSecs != nil {
		start = time.Now()
	}
	err := p.flushLocked(tenant, ln)
	if p.flushSecs != nil {
		p.flushSecs.Observe(time.Since(start).Seconds())
	}
	if err != nil {
		p.shipErrs.Inc()
	}
	return err
}

func (p *Primary) flushLocked(tenant string, ln *lineage) error {
	if ln.synced {
		if len(ln.pending) == 0 {
			return nil
		}
		err := p.send(tenant, ln.pending, false)
		if err == nil {
			p.fold(ln)
			return nil
		}
		if errors.Is(err, ErrDeposed) {
			return err
		}
		// Gap or transport loss: the incremental group may or may not have
		// landed. Fall through to a full resync, which is idempotent —
		// the standby resets and replays the folded lineage.
		ln.synced = false
		p.logf("replica: tenant %s: incremental flush failed (%v); resyncing", tenant, err)
	}

	group := make([]checkpoint.Shipment, 0, 1+len(ln.recs)+len(ln.pending))
	if ln.snap != nil {
		group = append(group, *ln.snap)
	}
	group = append(group, ln.recs...)
	group = append(group, ln.pending...)
	if len(group) == 0 {
		return nil
	}
	p.resyncs.Inc()
	if err := p.send(tenant, group, true); err != nil {
		return err
	}
	p.fold(ln)
	ln.synced = true
	return nil
}

// fold absorbs the pending tail into the acked lineage representation:
// a snapshot supersedes everything before it; a journal-open starts the
// record chain over.
func (p *Primary) fold(ln *lineage) {
	for i := range ln.pending {
		sh := ln.pending[i]
		switch sh.Kind {
		case checkpoint.ShipSnapshot:
			ln.snap = &sh
			ln.recs = nil
		case checkpoint.ShipJournalOpen:
			ln.recs = append(ln.recs[:0], sh)
		case checkpoint.ShipJournalRecord:
			ln.recs = append(ln.recs, sh)
		}
	}
	p.pendingTotal.Add(int64(-len(ln.pending)))
	p.pendingG.Set(float64(p.pendingTotal.Load()))
	ln.pending = nil
}

func (p *Primary) send(tenant string, group []checkpoint.Shipment, full bool) error {
	if p.dropSend() {
		return fmt.Errorf("replica: send dropped by failpoint")
	}
	var body []byte
	for _, sh := range group {
		body = EncodeShipmentTo(body, sh)
	}
	p.groupBytes.Observe(float64(len(body)))
	req, err := http.NewRequest(http.MethodPost, p.base+shipPath+"?tenant="+tenant, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(termHeader, strconv.FormatUint(p.term.Load(), 10))
	if full {
		req.Header.Set(fullHeader, "1")
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusForbidden:
		p.fenced.Inc()
		p.deposed.Store(true)
		p.logf("replica: tenant %s: fenced by standby (term %s); primary deposed",
			tenant, resp.Header.Get(termHeader))
		return ErrDeposed
	case http.StatusConflict:
		return errOutOfOrder
	default:
		return fmt.Errorf("replica: standby returned %s", resp.Status)
	}
}

// EncodeShipmentTo is checkpoint.EncodeShipment re-exported for callers
// holding a replica handle; it keeps the wire format in one place.
func EncodeShipmentTo(b []byte, sh checkpoint.Shipment) []byte {
	return checkpoint.EncodeShipment(b, sh)
}

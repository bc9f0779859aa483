package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"moe"
	"moe/internal/checkpoint"
	"moe/internal/features"
	"moe/internal/replica"
	"moe/internal/telemetry"
)

// Server is the decision daemon: the tenant registry plus the robustness
// envelope (admission, deadlines, breakers, watchdog, drain) around it.
// Create with NewServer, serve via Handler, stop via Drain (graceful) or
// Close (immediate).
type Server struct {
	cfg     Config
	reg     *telemetry.Registry
	mux     *http.ServeMux
	bucket  *tokenBucket
	slots   *slots
	tn      tenants
	metrics serverMetrics
	stream  streamMetrics
	jit     *jitter

	// gcommit is every tenant store's journal committer: one fsync per
	// committed batch, shared across tenants inside GroupCommitWindow
	// (inert when CheckpointSync is off).
	gcommit *checkpoint.GroupCommitter

	// Streaming transport state: registered listeners (ServeStream) and open
	// sessions. Close closes listeners; Drain closes sessions last, after
	// their in-flight frames were flushed through the inflight group.
	sessMu     sync.Mutex
	sessions   map[net.Conn]struct{}
	listeners  []net.Listener
	sessClosed bool

	// Replication roles (both nil on a standalone server). A server may be
	// both at once — a promoted standby chaining to its own standby.
	primary *replica.Primary
	standby *replica.Standby
	// serving gates the decision path: false while in standby role (flips
	// true at promotion). promoted holds the fencing term this server was
	// promoted at (0 = never), floored into every store run it opens.
	serving  atomic.Bool
	promoted atomic.Uint64

	inflight sync.WaitGroup
	draining atomic.Bool
	stop     chan struct{}
	stopOnce sync.Once
	logf     func(format string, args ...any)
}

// NewServer builds a server from cfg and starts its watchdog. The caller
// owns shutdown: Drain for the graceful path, Close to just stop the
// watchdog (tests, error paths).
func NewServer(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		reg:    cfg.Registry,
		bucket: newTokenBucket(cfg.Rate, cfg.Burst),
		slots:  newSlots(cfg.MaxInflight),
		tn:     tenants{m: make(map[string]*tenant)},
		jit:    newJitter(cfg.JitterSeed),
		stop:   make(chan struct{}),
		logf:   cfg.Logf,
	}
	s.serving.Store(!cfg.Standby)
	if cfg.ReplicateTo != "" {
		s.primary = replica.NewPrimary(cfg.ReplicateTo, cfg.Registry, cfg.Logf)
		s.primary.SetTerm(cfg.ReplicaTerm)
	}
	// Tenant IDs are caller-controlled; cap the labeled series they can
	// mint and make the overflow visible (satellite: cardinality cap).
	s.reg.SetSeriesLimit(cfg.MaxTenantSeries, "serve_labels_dropped_total")
	s.metrics.init(s.reg)
	s.stream.init(s.reg)
	s.gcommit = checkpoint.NewGroupCommitter(cfg.GroupCommitWindow)
	s.gcommit.SetMetrics(s.stream.gcFsyncs, s.stream.gcSaved)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/decide", s.handleDecide)
	s.mux.HandleFunc("/v1/stream", s.handleStream)
	s.mux.HandleFunc("/v1/tenants", s.handleTenants)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	if cfg.Standby {
		sb, err := replica.NewStandby(cfg.CheckpointRoot, cfg.CheckpointSync, cfg.Registry, cfg.Logf)
		if err != nil {
			return nil, err
		}
		s.standby = sb
		s.mux.Handle("/replica/v1/", sb.Handler())
		s.mux.HandleFunc("/v1/promote", s.handlePromote)
	}
	s.mux.Handle("/", telemetry.Mux(s.reg)) // /metrics, /metrics.json, /debug/pprof
	go s.watchdogLoop()
	return s, nil
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the metric registry (harnesses read shed/deadline/
// breaker counts from it).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// GroupCommitStats reports journal fsyncs issued by batch commits (JSON and
// stream alike) and those saved by sharing; zeros when CheckpointSync is off.
func (s *Server) GroupCommitStats() (fsyncs, saved int64) {
	return s.gcommit.Stats()
}

// Close stops the watchdog and closes stream listeners without draining.
// Safe to call more than once and after Drain. Open stream sessions are
// left to finish (Drain closes them; a process exit kills them anyway).
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.closeStreamListeners()
}

// serverMetrics is the daemon-level serve_* family set (per-tenant series
// live on the tenant).
type serverMetrics struct {
	reg              *telemetry.Registry
	decisions        *telemetry.Counter
	deadlineExceeded *telemetry.Counter
	panics           *telemetry.Counter
	breakerTrips     *telemetry.Counter
	recycles         *telemetry.Counter
	resumeFailures   *telemetry.Counter
	dedupHits        *telemetry.Counter
	tenants          *telemetry.Gauge
	inflight         *telemetry.Gauge
	drainSeconds     *telemetry.Gauge
	drainClean       *telemetry.Gauge
	requestSeconds   *telemetry.Histogram

	mu    sync.Mutex
	codes map[int]*telemetry.Counter
	sheds map[string]*telemetry.Counter
}

func (m *serverMetrics) init(reg *telemetry.Registry) {
	m.reg = reg
	m.decisions = reg.Counter("serve_decisions_total", "Decisions served across all tenants.")
	m.deadlineExceeded = reg.Counter("serve_deadline_exceeded_total", "Requests that missed their deadline (504).")
	m.panics = reg.Counter("serve_panics_recovered_total", "Tenant decision panics recovered by the envelope.")
	m.breakerTrips = reg.Counter("serve_breaker_trips_total", "Tenant circuit-breaker openings.")
	m.recycles = reg.Counter("serve_watchdog_recycles_total", "Wedged tenant generations recycled by the watchdog.")
	m.resumeFailures = reg.Counter("serve_resume_failures_total", "Checkpoint resumes abandoned (poison or wedged journal replay).")
	m.dedupHits = reg.Counter("serve_dedup_hits_total", "Requests answered from the idempotency window.")
	m.tenants = reg.Gauge("serve_tenants", "Registered tenants.")
	m.inflight = reg.Gauge("serve_inflight", "Decision requests currently holding a slot.")
	m.drainSeconds = reg.Gauge("serve_drain_seconds", "Duration of the last drain.")
	m.drainClean = reg.Gauge("serve_drain_clean", "1 when the last drain checkpointed every persistent tenant in the window.")
	m.requestSeconds = reg.Histogram("serve_request_seconds", "Decision request latency, admission to response.", nil)
	m.codes = make(map[int]*telemetry.Counter)
	m.sheds = make(map[string]*telemetry.Counter)
}

func (m *serverMetrics) code(status int) *telemetry.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.codes[status]
	if c == nil {
		c = m.reg.Counter("serve_requests_total", "Decision requests by response code.",
			"code", strconv.Itoa(status))
		m.codes[status] = c
	}
	return c
}

func (m *serverMetrics) shed(reason string) *telemetry.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.sheds[reason]
	if c == nil {
		c = m.reg.Counter("serve_shed_total", "Requests shed by admission control, by reason.",
			"reason", reason)
		m.sheds[reason] = c
	}
	return c
}

// apiError is a refusal on its way to the wire.
type apiError struct {
	status     int
	code       string
	msg        string
	retryAfter time.Duration
}

// shed counts a refusal under reason and shapes it into the response. Every
// Retry-After hint leaving here is jittered (+U[0, hint/2)) so a cohort
// shed together does not return together.
func (s *Server) shed(reason string, status int, msg string, retryAfter time.Duration) *apiError {
	s.metrics.shed(reason).Inc()
	return &apiError{status: status, code: reason, msg: msg, retryAfter: s.jit.spread(retryAfter)}
}

func (s *Server) deadline() *apiError {
	s.metrics.deadlineExceeded.Inc()
	return &apiError{status: http.StatusGatewayTimeout, code: "deadline-exceeded", msg: "request deadline exceeded"}
}

// Wire format.
type decideRequest struct {
	Tenant       string        `json:"tenant"`
	Observations []observation `json:"observations"`
	// RequestID makes the request idempotent within the tenant's dedup
	// window: a retry carrying the same ID returns the original decisions
	// instead of re-advancing the runtime. The X-Request-Id header is an
	// equivalent spelling for single-JSON bodies.
	RequestID string `json:"request_id,omitempty"`
}

type observation struct {
	Time           float64   `json:"time"`
	Features       []float64 `json:"features"`
	Rate           float64   `json:"rate,omitempty"`
	RegionStart    bool      `json:"region_start,omitempty"`
	AvailableProcs int       `json:"available_procs,omitempty"`
}

type decideResponse struct {
	Tenant    string `json:"tenant"`
	Threads   []int  `json:"threads"`
	Decisions int64  `json:"decisions"`
	// Deduped marks a response answered from the idempotency window: these
	// are the decisions originally acked under this request ID, and the
	// runtime did not advance again.
	Deduped bool `json:"deduped,omitempty"`
}

type errorResponse struct {
	Error        string `json:"error"`
	Code         string `json:"code"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

func (o *observation) toObs() (moe.Observation, error) {
	if len(o.Features) > features.Dim {
		return moe.Observation{}, fmt.Errorf("observation has %d features, max %d", len(o.Features), features.Dim)
	}
	obs := moe.Observation{
		Time:           o.Time,
		Rate:           o.Rate,
		RegionStart:    o.RegionStart,
		AvailableProcs: o.AvailableProcs,
	}
	copy(obs.Features[:], o.Features)
	return obs, nil
}

func (s *Server) writeError(w http.ResponseWriter, e *apiError) {
	w.Header().Set("Content-Type", "application/json")
	var retryMs int64
	if e.retryAfter > 0 {
		secs := int64(e.retryAfter+time.Second-1) / int64(time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		retryMs = e.retryAfter.Milliseconds()
	}
	w.WriteHeader(e.status)
	json.NewEncoder(w).Encode(errorResponse{Error: e.msg, Code: e.code, RetryAfterMs: retryMs})
}

// requestDeadline resolves the per-request deadline: X-Deadline-Ms capped
// by MaxDeadline, DefaultDeadline when absent or unparsable.
func (s *Server) requestDeadline(r *http.Request) time.Duration {
	d := s.cfg.DefaultDeadline
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 {
			d = time.Duration(ms) * time.Millisecond
		}
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d
}

// handleDecide is the decision endpoint. Admission runs once per HTTP
// request, in fixed order — drain gate, token bucket (429), slot pool
// (503) — before any tenant state is touched. The body is either a single
// JSON request or, with Content-Type application/x-ndjson, a stream of
// them served in order on one connection (each line gets its own deadline;
// errors are reported per line and do not end the stream).
func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	status := http.StatusOK
	defer func() {
		s.metrics.code(status).Inc()
		s.metrics.requestSeconds.Observe(time.Since(start).Seconds())
	}()
	if r.Method != http.MethodPost {
		status = http.StatusMethodNotAllowed
		s.writeError(w, &apiError{status: status, code: "method-not-allowed", msg: "POST required"})
		return
	}
	// Join the in-flight group before reading the drain gate: Drain sets
	// the gate and then waits on the group, so this order guarantees every
	// request that passes the gate is flushed (and journaled) before the
	// final per-tenant snapshots — never half-drained.
	s.inflight.Add(1)
	defer s.inflight.Done()
	if s.draining.Load() {
		e := s.shed("draining", http.StatusServiceUnavailable, "server is draining", time.Second)
		status = e.status
		s.writeError(w, e)
		return
	}
	// Role gates: a standby holds replicated lineages but no live runtimes
	// until promoted; a deposed primary must stop acking decisions the
	// moment a promoted standby fences it — acks here would fork history.
	if !s.serving.Load() {
		e := s.shed("standby", http.StatusServiceUnavailable, "standby; not serving until promoted", time.Second)
		status = e.status
		s.writeError(w, e)
		return
	}
	if s.primary != nil && s.primary.Deposed() {
		e := s.shed("deposed", http.StatusServiceUnavailable, "deposed by promoted standby", time.Second)
		status = e.status
		s.writeError(w, e)
		return
	}
	if ok, retry := s.bucket.take(time.Now()); !ok {
		e := s.shed("rate", http.StatusTooManyRequests, "request rate over limit", retry)
		status = e.status
		s.writeError(w, e)
		return
	}
	if !s.slots.tryAcquire() {
		e := s.shed("capacity", http.StatusServiceUnavailable, "all decision slots busy", 100*time.Millisecond)
		status = e.status
		s.writeError(w, e)
		return
	}
	s.metrics.inflight.Set(float64(s.slots.inUse()))
	defer func() {
		s.slots.release()
		s.metrics.inflight.Set(float64(s.slots.inUse()))
	}()

	deadline := s.requestDeadline(r)
	// Parse the media type properly: "application/x-ndjson; charset=utf-8"
	// is NDJSON too, and an exact string match would silently mis-route it
	// to the single-JSON path (where the second line is trailing garbage).
	if mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type")); err == nil && mt == "application/x-ndjson" {
		s.serveNDJSON(w, r, deadline)
		return
	}
	var req decideRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&req); err != nil {
		status = http.StatusBadRequest
		s.writeError(w, &apiError{status: status, code: "bad-request", msg: "malformed JSON: " + err.Error()})
		return
	}
	if req.RequestID == "" {
		req.RequestID = r.Header.Get("X-Request-Id")
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()
	resp, aerr := s.serveOne(ctx, &req)
	if aerr != nil {
		status = aerr.status
		s.writeError(w, aerr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// serveNDJSON runs a stream of request lines through the decision path in
// order, one response line per request line. All lines are read before the
// first is served — net/http tears down the request body once the response
// starts — so the HTTP status is committed at the first line and per-line
// failures travel in the line objects (code field) instead.
func (s *Server) serveNDJSON(w http.ResponseWriter, r *http.Request, deadline time.Duration) {
	const maxLines = 4096
	dec := json.NewDecoder(io.LimitReader(r.Body, 64<<20))
	var reqs []decideRequest
	var decodeErr, decodeCode string
	for {
		var req decideRequest
		if err := dec.Decode(&req); err != nil {
			if !errors.Is(err, io.EOF) {
				decodeErr, decodeCode = "malformed NDJSON line: "+err.Error(), "bad-request"
			}
			break
		}
		if len(reqs) == maxLines {
			// Never truncate silently: the client must learn its lines past
			// the cap were not served, or it will treat the stream as fully
			// acked. Served lines still get their responses below.
			decodeErr = fmt.Sprintf("stream over the %d-line cap; later lines not served", maxLines)
			decodeCode = "too-many-lines"
			break
		}
		reqs = append(reqs, req)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for i := range reqs {
		ctx, cancel := context.WithTimeout(r.Context(), deadline)
		resp, aerr := s.serveOne(ctx, &reqs[i])
		cancel()
		if aerr != nil {
			enc.Encode(errorResponse{Error: aerr.msg, Code: aerr.code, RetryAfterMs: aerr.retryAfter.Milliseconds()})
		} else {
			enc.Encode(resp)
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if decodeErr != "" {
		enc.Encode(errorResponse{Error: decodeErr, Code: decodeCode})
	}
}

// serveOne validates and serves a single decide request body.
func (s *Server) serveOne(ctx context.Context, req *decideRequest) (*decideResponse, *apiError) {
	if len(req.Observations) == 0 {
		return nil, &apiError{status: 400, code: "bad-request", msg: "no observations"}
	}
	if len(req.Observations) > s.cfg.MaxBatch {
		return nil, &apiError{status: 400, code: "bad-request",
			msg: fmt.Sprintf("batch of %d observations over the %d cap", len(req.Observations), s.cfg.MaxBatch)}
	}
	obs := make([]moe.Observation, len(req.Observations))
	for i := range req.Observations {
		o, err := req.Observations[i].toObs()
		if err != nil {
			return nil, &apiError{status: 400, code: "bad-request", msg: err.Error()}
		}
		obs[i] = o
	}
	if len(req.RequestID) > maxRequestID {
		return nil, &apiError{status: 400, code: "bad-request",
			msg: fmt.Sprintf("request_id of %d bytes over the %d cap", len(req.RequestID), maxRequestID)}
	}
	t, aerr := s.tenant(req.Tenant)
	if aerr != nil {
		return nil, aerr
	}
	res, aerr := s.decideTenant(ctx, t, req.RequestID, obs)
	if aerr != nil {
		return nil, aerr
	}
	if res.deduped {
		return &decideResponse{Tenant: t.id, Threads: res.threads,
			Decisions: res.decisions, Deduped: true}, nil
	}
	t.mu.Lock()
	served := t.served
	t.mu.Unlock()
	return &decideResponse{Tenant: t.id, Threads: res.threads, Decisions: served}, nil
}

// maxRequestID bounds client request IDs (they are journaled).
const maxRequestID = 128

// decideResult is what the decide goroutine hands back (or leaves behind,
// if the handler gave up on it).
type decideResult struct {
	threads   []int
	decisions int64 // runtime's lifetime decision count (survives resume)
	panicked  string
	// deposed: the commit flush was refused by a promoted standby. The
	// decision ran locally but must NOT be acked — an ack here would fork
	// acked history between the fenced primary and the new one.
	deposed bool
	// deduped: answered from the idempotency window; the runtime did not
	// advance and decisions holds the original ack's count.
	deduped bool
}

// decideTenant runs one batch on tenant t: breaker gate, core (re)build,
// the tenant's single decision slot, then the batch itself — all bounded
// by ctx.
func (s *Server) decideTenant(ctx context.Context, t *tenant, reqID string, obs []moe.Observation) (*decideResult, *apiError) {
	t.mu.Lock()
	ok, retry := t.brk.admit(time.Now())
	t.setStateLocked()
	t.mu.Unlock()
	if !ok {
		return nil, s.shed("quarantined", http.StatusServiceUnavailable, "tenant quarantined after fault", retry)
	}
	for attempt := 0; ; attempt++ {
		core, aerr := s.ensureCore(ctx, t)
		if aerr != nil {
			return nil, aerr
		}
		select {
		case core.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, s.deadline()
		}
		// The generation may have been recycled while we waited on its
		// slot; serving on it would resurrect an abandoned timeline.
		t.mu.Lock()
		stale := t.core != core
		if !stale {
			t.busySince = time.Now()
		}
		t.mu.Unlock()
		if stale {
			<-core.sem
			if attempt < 2 {
				continue
			}
			return nil, s.shed("recycled", http.StatusServiceUnavailable, "tenant recycling", s.cfg.BreakerBackoff)
		}
		// Idempotency check, under the decision slot and after the core (and
		// with it the journal-recovered window) exists: a request ID we
		// already acked answers from the window — the runtime must not
		// advance twice for one logical request, whether the retry hits this
		// process, a restarted one, or a promoted standby. Holding the slot
		// serializes the lookup against a concurrent twin's commit.
		if reqID != "" {
			t.mu.Lock()
			hit, ok := t.dedup.lookup(reqID)
			if ok {
				t.busySince = time.Time{}
			}
			t.mu.Unlock()
			if ok {
				<-core.sem
				s.metrics.dedupHits.Inc()
				return &decideResult{threads: hit.Threads, decisions: int64(hit.Decisions), deduped: true}, nil
			}
		}
		return s.runDecide(ctx, t, core, reqID, obs)
	}
}

// runDecide executes the batch in its own goroutine so the handler can
// abandon it at the deadline without killing it: the decision keeps
// running (the watchdog deals with it if it never finishes), bookkeeping
// happens in finishDecide either way, and the tenant's slot is released
// only when the batch is truly done.
func (s *Server) runDecide(ctx context.Context, t *tenant, core *tenantCore, reqID string, obs []moe.Observation) (*decideResult, *apiError) {
	done := make(chan *decideResult, 1)
	go func() {
		res := &decideResult{}
		func() {
			defer func() {
				if p := recover(); p != nil {
					res.panicked = fmt.Sprint(p)
					res.threads = nil
				}
			}()
			res.threads = core.rt.DecideBatch(obs)
			res.decisions = int64(core.rt.Decisions())
		}()
		// Commit before the handler is released: the dedup marker must be
		// journaled behind the batch's own entries, and the replication
		// group must be flushed, before the client can see the ack.
		s.commitBatch(t, core, reqID, res)
		s.finishDecide(t, core, res)
		done <- res
		<-core.sem
	}()
	select {
	case res := <-done:
		if res.panicked != "" {
			return nil, &apiError{status: http.StatusInternalServerError, code: "tenant-fault",
				msg: "tenant decision faulted; tenant quarantined", retryAfter: s.jit.spread(s.cfg.BreakerBackoff)}
		}
		if res.deposed {
			return nil, s.shed("deposed", http.StatusServiceUnavailable,
				"deposed by promoted standby; decision not acknowledged", time.Second)
		}
		return res, nil
	case <-ctx.Done():
		// The batch may still be running — or wedged. It owns the slot and
		// the generation until it finishes or the watchdog recycles it.
		return nil, s.deadline()
	}
}

// handleTenants lists tenants and their envelope state, sorted by ID.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	type tenantInfo struct {
		ID        string `json:"id"`
		State     string `json:"state"`
		Gen       int    `json:"gen"`
		Decisions int64  `json:"decisions"`
		Recycles  int    `json:"recycles"`
		Trips     int    `json:"breaker_trips"`
		Degraded  string `json:"degraded,omitempty"`
	}
	list := s.tn.snapshot()
	out := make([]tenantInfo, 0, len(list))
	for _, t := range list {
		t.mu.Lock()
		out = append(out, tenantInfo{
			ID:        t.id,
			State:     t.brk.state.String(),
			Gen:       t.gen,
			Decisions: t.served,
			Recycles:  t.recycles,
			Trips:     t.brk.trips,
			Degraded:  t.degraded,
		})
		t.mu.Unlock()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok\n")
}

package serve

import (
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

func (e *apiError) response() errorResponse {
	return errorResponse{Error: e.msg, Code: e.code, RetryAfterMs: e.retryAfter.Milliseconds()}
}

func badRequest(msg string) *apiError {
	return &apiError{status: http.StatusBadRequest, code: "bad-request", msg: msg}
}

// errDeadline answers a request that missed its deadline. Only the waiter
// that sends it counts it (await), so a request is counted once no matter
// how many stages saw its deadline pass.
var errDeadline = &apiError{status: http.StatusGatewayTimeout, code: "deadline-exceeded", msg: "request deadline exceeded"}

// shed counts a refusal under reason and shapes it into the response. Every
// Retry-After hint leaving here is jittered (+U[0, hint/2)) so a cohort
// shed together does not return together.
func (s *Server) shed(reason string, status int, msg string, retryAfter time.Duration) *apiError {
	return s.shedN(1, reason, status, msg, retryAfter)
}

// shedN is shed for n requests refused together (the members of a group):
// one count each, one shared reply.
func (s *Server) shedN(n int, reason string, status int, msg string, retryAfter time.Duration) *apiError {
	s.metrics.shed(reason).Add(int64(n))
	return &apiError{status: status, code: reason, msg: msg, retryAfter: s.jit.spread(retryAfter)}
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
	if e.retryAfter > 0 {
		secs := int64(e.retryAfter+time.Second-1) / int64(time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.WriteHeader(e.status)
	json.NewEncoder(w).Encode(e.response())
}

// deadlineFor resolves a request's deadline from the milliseconds its client
// asked for (X-Deadline-Ms, a frame's deadline field): DefaultDeadline when
// none (0), capped by MaxDeadline.
func (s *Server) deadlineFor(ms uint64) time.Duration {
	d := s.cfg.MaxDeadline
	switch {
	case ms == 0:
		d = min(d, s.cfg.DefaultDeadline)
	case ms < uint64(d/time.Millisecond):
		d = time.Duration(ms) * time.Millisecond
	}
	return d
}

// The serve pipeline (DESIGN.md §13, §16). Every transport — a JSON body,
// an NDJSON line, a demoted JSON value on the stream port, a wire frame —
// is a codec over the same stages:
//
//	admit ─► validate ─► tenant coalescer ─► group serve ─► commit ─► fill
//
// admit runs once per admitted unit (an HTTP body, NDJSON included; a
// demoted JSON value; a wire frame). validate and everything after it run
// per request. The transport then waits on the request (await) and encodes
// the outcome its own way.

// request is one decide request on its way through the pipeline. The
// transport sets the inputs and hands it to its tenant's coalescer; then
// exactly one party fills the outcome and closes done — the group server,
// or the transport itself when it refuses the request first. A waiter that
// gave up at the deadline never reads the outcome again.
type request struct {
	tenant   *tenant
	reqID    string
	obs      []moe.Observation
	deadline time.Time
	done     chan struct{}

	// Wire frames only: the sequence number the response echoes, the
	// admission time, and whether the frame holds a concurrency slot until
	// its response is written.
	seq       uint64
	start     time.Time
	holdsSlot bool

	decisions int64 // the tenant's decision count after this request's last observation
	threads   []int
	deduped   bool
	err       *apiError
}

func newRequest(now time.Time, deadline time.Duration) *request {
	return &request{deadline: now.Add(deadline), done: make(chan struct{})}
}

// fail answers r with e.
func (r *request) fail(e *apiError) {
	r.err = e
	close(r.done)
}

func failGroup(group []*request, e *apiError) {
	for _, r := range group {
		r.fail(e)
	}
}

// admit is the admission gate, in fixed order: drain gate, role gates,
// token bucket (429), slot pool (503). It touches no tenant state. On nil
// the caller holds one concurrency slot, returned with releaseSlot.
func (s *Server) admit(now time.Time) *apiError {
	if s.draining.Load() {
		return s.shed("draining", http.StatusServiceUnavailable, "server is draining", time.Second)
	}
	// Role gates: a standby holds replicated lineages but no live runtimes
	// until promoted; a deposed primary must stop acking decisions the
	// moment a promoted standby fences it — acks here would fork history.
	if !s.serving.Load() {
		return s.shed("standby", http.StatusServiceUnavailable, "standby; not serving until promoted", time.Second)
	}
	if s.primary != nil && s.primary.Deposed() {
		return s.shed("deposed", http.StatusServiceUnavailable, "deposed by promoted standby", time.Second)
	}
	if ok, retry := s.bucket.take(now); !ok {
		return s.shed("rate", http.StatusTooManyRequests, "request rate over limit", retry)
	}
	if !s.slots.tryAcquire() {
		return s.shed("capacity", http.StatusServiceUnavailable, "all decision slots busy", 100*time.Millisecond)
	}
	s.metrics.inflight.Set(float64(s.slots.inUse()))
	return nil
}

func (s *Server) releaseSlot() {
	s.slots.release()
	s.metrics.inflight.Set(float64(s.slots.inUse()))
}

// maxRequestID bounds client request IDs (they are journaled).
const maxRequestID = 128

// validate checks an admitted request of n observations — non-empty, within
// MaxBatch, request ID within its cap — and resolves its tenant.
func (s *Server) validate(tenantID, reqID string, n int) (*tenant, *apiError) {
	if n == 0 {
		return nil, badRequest("no observations")
	}
	if n > s.cfg.MaxBatch {
		return nil, badRequest(fmt.Sprintf("batch of %d observations over the %d cap", n, s.cfg.MaxBatch))
	}
	if len(reqID) > maxRequestID {
		return nil, badRequest(fmt.Sprintf("request_id of %d bytes over the %d cap", len(reqID), maxRequestID))
	}
	return s.tenant(tenantID)
}

// await waits for r's outcome until r's deadline and returns the refusal to
// answer with, nil when r was served. It is the only place a deadline miss
// is counted.
func (s *Server) await(r *request) *apiError {
	select {
	case <-r.done:
	default:
		tm := time.NewTimer(time.Until(r.deadline))
		select {
		case <-r.done:
			tm.Stop()
		case <-tm.C:
			// The request may still be served later — harmless: its outcome
			// is never read again, and a wedged batch is the watchdog's.
			s.metrics.deadlineExceeded.Inc()
			return errDeadline
		}
	}
	if r.err == errDeadline {
		s.metrics.deadlineExceeded.Inc()
	}
	return r.err
}

// handleDecide is the decision endpoint. The body is admitted once, before
// any tenant state is touched; it is either a single JSON request or, with
// Content-Type application/x-ndjson, a stream of them served in order on
// one connection (each line gets its own deadline; errors are reported per
// line and do not end the stream).
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
	if e := s.admit(start); e != nil {
		status = e.status
		s.writeError(w, e)
		return
	}
	defer s.releaseSlot()

	ms, err := strconv.ParseUint(r.Header.Get("X-Deadline-Ms"), 10, 64)
	if err != nil {
		ms = 0 // absent or unparsable
	}
	deadline := s.deadlineFor(ms)
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
		s.writeError(w, badRequest("malformed JSON: "+err.Error()))
		return
	}
	if req.RequestID == "" {
		req.RequestID = r.Header.Get("X-Request-Id")
	}
	resp, aerr := s.serveJSON(&req, deadline)
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
		if resp, aerr := s.serveJSON(&reqs[i], deadline); aerr != nil {
			enc.Encode(aerr.response())
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

// serveJSON is the JSON codec over the pipeline for one admitted request —
// a body, an NDJSON line or a demoted value: validate, convert, hand to the
// tenant's coalescer, and wait for the outcome until the deadline.
func (s *Server) serveJSON(req *decideRequest, deadline time.Duration) (*decideResponse, *apiError) {
	t, aerr := s.validate(req.Tenant, req.RequestID, len(req.Observations))
	if aerr != nil {
		return nil, aerr
	}
	r := newRequest(time.Now(), deadline)
	r.tenant, r.reqID = t, req.RequestID
	r.obs = make([]moe.Observation, len(req.Observations))
	for i := range req.Observations {
		o, err := req.Observations[i].toObs()
		if err != nil {
			return nil, badRequest(err.Error())
		}
		r.obs[i] = o
	}
	s.enqueue(r)
	if aerr := s.await(r); aerr != nil {
		return nil, aerr
	}
	return &decideResponse{Tenant: t.id, Threads: r.threads, Decisions: r.decisions, Deduped: r.deduped}, nil
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

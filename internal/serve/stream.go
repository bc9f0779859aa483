package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"moe"
	"moe/internal/checkpoint"
	"moe/internal/telemetry"
	"moe/internal/wire"
)

// The streaming transport (DESIGN.md §16). One connection carries many
// decide frames; the session splits into two goroutine halves joined by an
// arrival-ordered slot queue:
//
//	decode loop ──► per-tenant coalescer ──► decide goroutine
//	     │                                        │ fills slot
//	     └────────── order queue ──► write loop ◄─┘
//
// The decode loop parses frames and runs the same admission envelope the
// HTTP path runs per request — drain gate, role gates, token bucket, slot
// pool, per-frame deadline, then tenant breaker/dedup under the tenant's
// decision slot — except refusals become per-frame error frames instead of
// HTTP statuses. Admitted frames enter the tenant's coalescer: frames that
// arrive while the tenant's decision slot is busy merge into one
// DecideBatch (byte-identical to serving them back to back — the PR 6
// batch contract), amortizing slot churn, journal commit, and replica
// flush across the group. Responses are written strictly in frame arrival
// order by a single writer that flushes once per quiet edge, so a
// coalesced group costs one syscall, not one per frame.

// streamMetrics is the serve_stream_* family.
type streamMetrics struct {
	sessions  *telemetry.Gauge
	framesIn  *telemetry.Counter
	framesOut *telemetry.Counter
	bytesIn   *telemetry.Counter
	bytesOut  *telemetry.Counter
	coalesced *telemetry.Histogram
	demotions *telemetry.Counter
	gcFsyncs  *telemetry.Counter
	gcSaved   *telemetry.Counter
}

func (m *streamMetrics) init(reg *telemetry.Registry) {
	m.sessions = reg.Gauge("serve_stream_sessions", "Open streaming sessions.")
	m.framesIn = reg.Counter("serve_stream_frames_total", "Stream frames by direction.", "dir", "in")
	m.framesOut = reg.Counter("serve_stream_frames_total", "Stream frames by direction.", "dir", "out")
	m.bytesIn = reg.Counter("serve_stream_bytes_total", "Stream bytes by direction.", "dir", "in")
	m.bytesOut = reg.Counter("serve_stream_bytes_total", "Stream bytes by direction.", "dir", "out")
	m.coalesced = reg.Histogram("serve_stream_coalesced_batch",
		"Decide frames merged into one DecideBatch by the per-tenant coalescer.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128})
	m.demotions = reg.Counter("serve_stream_demotions_total",
		"Stream sessions demoted to the JSON ladder at handshake.")
	m.gcFsyncs = reg.Counter("serve_stream_group_commit_fsyncs_total",
		"Journal fsyncs issued by batch commits, JSON and stream alike.")
	m.gcSaved = reg.Counter("serve_stream_group_commit_fsyncs_saved_total",
		"Journal fsyncs avoided by group commit (vs per-append fsync).")
}

// streamSlot is one frame's place in the response order. The decode loop
// enqueues it, exactly one producer fills buf and closes done, and the
// writer — the only reader of buf — writes it in arrival order, or gives
// up at the slot's deadline and never looks at buf again.
type streamSlot struct {
	seq       uint64
	start     time.Time
	deadline  time.Time
	holdsSlot bool // owns a server concurrency slot until written
	buf       []byte
	done      chan struct{}
}

// streamReq is an admitted decide frame on its way through a tenant
// coalescer; the decide goroutine fills decisions/threads for the commit.
type streamReq struct {
	reqID     string
	obs       []moe.Observation
	slot      *streamSlot
	decisions int64
	threads   []int
}

// session is one streaming connection.
type session struct {
	s       *Server
	conn    net.Conn
	bw      *bufio.Writer
	order   chan *streamSlot
	scratch []byte // writer-owned encode buffer for timeout error frames
	werr    error  // first write error; later writes are swallowed
}

// ServeStream serves the wire protocol on ln — the same session loop the
// hijacked POST /v1/stream runs, minus the HTTP upgrade. It returns when
// the listener closes (Close and Drain close registered listeners).
func (s *Server) ServeStream(ln net.Listener) error {
	s.sessMu.Lock()
	s.listeners = append(s.listeners, ln)
	closed := s.sessClosed
	s.sessMu.Unlock()
	if closed {
		ln.Close()
		return nil
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.stop:
				return nil
			default:
			}
			if s.draining.Load() {
				return nil
			}
			return err
		}
		go func() {
			br := bufio.NewReaderSize(conn, 64<<10)
			bw := bufio.NewWriterSize(conn, 64<<10)
			s.runSession(conn, br, bw)
		}()
	}
}

// handleStream upgrades POST /v1/stream to a raw full-duplex framed body
// and hands the connection to the shared session loop.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, &apiError{status: http.StatusMethodNotAllowed, code: "method-not-allowed", msg: "POST required"})
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		s.writeError(w, &apiError{status: http.StatusInternalServerError, code: "stream-unsupported",
			msg: "connection cannot be hijacked for streaming"})
		return
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		s.writeError(w, &apiError{status: http.StatusInternalServerError, code: "stream-unsupported", msg: err.Error()})
		return
	}
	// Commit the upgrade before reading frames: clients wait for the 101
	// before streaming. The hijacked reader may already hold body bytes —
	// it stays the session's read side.
	io.WriteString(rw.Writer, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: moe-wire/1\r\n\r\n")
	if err := rw.Writer.Flush(); err != nil {
		conn.Close()
		return
	}
	s.runSession(conn, rw.Reader, rw.Writer)
}

// runSession is the shared session loop: handshake (or demotion), then the
// decode loop feeding the ordered writer until the peer hangs up, a frame
// breaks, or the server drains.
func (s *Server) runSession(conn net.Conn, br *bufio.Reader, bw *bufio.Writer) {
	defer conn.Close()
	if !s.trackSession(conn) {
		return
	}
	defer s.untrackSession(conn)
	s.stream.sessions.Add(1)
	defer s.stream.sessions.Add(-1)

	sess := &session{s: s, conn: conn, bw: bw, order: make(chan *streamSlot, s.cfg.MaxInflight+16)}

	// First bytes decide the protocol: a wire hello opens a framed
	// session; anything else (a '{' from a JSON client, typically) demotes
	// to the JSON ladder on the same connection — typed and counted, the
	// transport mirror of the regime dispatcher's full-ladder fallback.
	peek, _ := br.Peek(9)
	if len(peek) == 0 {
		return
	}
	if !wire.HelloPrefix(peek) {
		s.stream.demotions.Inc()
		s.serveDemoted(br, bw)
		return
	}
	rd := wire.NewReader(br)
	kind, payload, n, err := rd.Next()
	if err != nil || kind != wire.FrameHello {
		sess.writeNow(wire.AppendError(nil, 0, 0, "bad-frame", "malformed hello frame"))
		return
	}
	s.stream.framesIn.Inc()
	s.stream.bytesIn.Add(int64(n))
	if _, err := wire.ParseHello(payload); err != nil {
		code := "bad-frame"
		if errors.Is(err, wire.ErrVersion) {
			code = "unsupported-version"
		}
		sess.writeNow(wire.AppendError(nil, 0, 0, code, err.Error()))
		return
	}
	sess.writeNow(wire.AppendHello(nil))
	if sess.werr != nil {
		return
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess.writeLoop()
	}()
	sess.decodeLoop(rd)
	close(sess.order)
	wg.Wait()
	sess.bw.Flush()
}

// writeNow writes one frame immediately (handshake path; the writer
// goroutine is not running yet).
func (sess *session) writeNow(frame []byte) {
	if sess.werr != nil {
		return
	}
	if _, err := sess.bw.Write(frame); err != nil {
		sess.werr = err
		return
	}
	if err := sess.bw.Flush(); err != nil {
		sess.werr = err
		return
	}
	sess.s.stream.framesOut.Inc()
	sess.s.stream.bytesOut.Add(int64(len(frame)))
}

// decodeLoop reads frames until EOF, a framing defect, or a connection
// error. It is the only producer on sess.order.
func (sess *session) decodeLoop(rd *wire.Reader) {
	s := sess.s
	var req wire.Decide
	for {
		kind, payload, n, err := rd.Next()
		if err != nil {
			if errors.Is(err, wire.ErrBadFrame) {
				// After a framing defect the stream has no recoverable
				// frame boundary: report it and end the session.
				sess.enqueueError(0, time.Now(), &apiError{status: 400, code: "bad-frame", msg: err.Error()})
			}
			return
		}
		s.stream.framesIn.Inc()
		s.stream.bytesIn.Add(int64(n))
		switch kind {
		case wire.FrameDecide:
			sess.handleDecideFrame(payload, &req)
		case wire.FrameHello:
			// Redundant hello mid-stream: harmless, ignore.
		default:
			// Unknown kind with intact framing: refuse the frame, keep the
			// session (forward compatibility).
			sess.enqueueError(0, time.Now(), &apiError{status: 400, code: "bad-frame",
				msg: fmt.Sprintf("unexpected frame kind %#x", kind)})
		}
	}
}

// enqueueError creates, fills, and queues an error slot in one step
// (refusals that never reach a tenant).
func (sess *session) enqueueError(seq uint64, now time.Time, e *apiError) {
	sess.s.inflight.Add(1)
	slot := &streamSlot{seq: seq, start: now, deadline: now.Add(sess.s.cfg.DefaultDeadline), done: make(chan struct{})}
	fillAPIError(slot, e)
	sess.order <- slot
}

func fillAPIError(slot *streamSlot, e *apiError) {
	slot.buf = wire.AppendError(slot.buf[:0], slot.seq, e.retryAfter.Milliseconds(), e.code, e.msg)
	close(slot.done)
}

func fillResult(slot *streamSlot, decisions int64, threads []int, deduped bool) {
	r := wire.Result{Seq: slot.seq, Decisions: decisions, Deduped: deduped, Threads: threads}
	slot.buf = wire.AppendResult(slot.buf[:0], &r)
	close(slot.done)
}

// handleDecideFrame runs one decide frame through the admission envelope —
// the same gates, in the same order, as the HTTP path — and either fills
// its slot with a refusal or hands it to the tenant's coalescer.
func (sess *session) handleDecideFrame(payload []byte, req *wire.Decide) {
	s := sess.s
	now := time.Now()
	if err := wire.ParseDecide(payload, req); err != nil {
		// The frame passed its checksum, so this is a malformed payload
		// from a confused client, not line noise: refuse it, keep the
		// session.
		sess.enqueueError(req.Seq, now, &apiError{status: 400, code: "bad-request", msg: err.Error()})
		return
	}
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMs > 0 {
		deadline = time.Duration(req.DeadlineMs) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	// Joining the in-flight group before the drain gate gives streams the
	// same guarantee HTTP requests get: every admitted frame is flushed
	// (and journaled) before the drain's final snapshots.
	s.inflight.Add(1)
	slot := &streamSlot{seq: req.Seq, start: now, deadline: now.Add(deadline), done: make(chan struct{})}
	if e := sess.admitFrame(slot, req, now); e != nil {
		fillAPIError(slot, e)
	}
	sess.order <- slot
}

// admitFrame is the per-frame envelope: gates, bucket, slots, validation,
// tenant routing. nil means the frame reached its tenant's coalescer and
// something downstream now owns the slot fill.
func (sess *session) admitFrame(slot *streamSlot, req *wire.Decide, now time.Time) *apiError {
	s := sess.s
	if s.draining.Load() {
		return s.shed("draining", http.StatusServiceUnavailable, "server is draining", time.Second)
	}
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
	slot.holdsSlot = true
	s.metrics.inflight.Set(float64(s.slots.inUse()))
	if len(req.Obs) == 0 {
		return &apiError{status: 400, code: "bad-request", msg: "no observations"}
	}
	if len(req.Obs) > s.cfg.MaxBatch {
		return &apiError{status: 400, code: "bad-request",
			msg: fmt.Sprintf("batch of %d observations over the %d cap", len(req.Obs), s.cfg.MaxBatch)}
	}
	if len(req.RequestID) > maxRequestID {
		return &apiError{status: 400, code: "bad-request",
			msg: fmt.Sprintf("request_id of %d bytes over the %d cap", len(req.RequestID), maxRequestID)}
	}
	t, aerr := s.tenant(string(req.Tenant))
	if aerr != nil {
		return aerr
	}
	s.enqueueStream(t, &streamReq{
		reqID: string(req.RequestID),
		// req.Obs aliases the frame read buffer; the coalescer outlives it.
		obs:  append([]moe.Observation(nil), req.Obs...),
		slot: slot,
	})
	return nil
}

// writeLoop is the session's single writer: slots leave in arrival order,
// each waiting out at most its own deadline. The buffered writer is
// flushed on quiet edges — when the queue momentarily empties — so a
// coalesced group's responses share one flush.
func (sess *session) writeLoop() {
	s := sess.s
	for slot := range sess.order {
		select {
		case <-slot.done:
		default:
			wait := time.Until(slot.deadline)
			if wait < 0 {
				wait = 0
			}
			tm := time.NewTimer(wait)
			select {
			case <-slot.done:
				tm.Stop()
			case <-tm.C:
				// Deadline: the decide may still land in the slot later —
				// harmless, this writer never reads it again. Mirror of the
				// HTTP 504-and-abandon path.
				e := s.deadline()
				sess.scratch = wire.AppendError(sess.scratch[:0], slot.seq, 0, e.code, e.msg)
				sess.write(sess.scratch)
				sess.finishSlot(slot)
				continue
			}
		}
		sess.write(slot.buf)
		sess.finishSlot(slot)
	}
}

// write appends one frame to the buffered writer, flushing on quiet edges.
// After the first connection error, frames are dropped silently: slots
// still drain (their resources must be released) but the peer is gone.
func (sess *session) write(frame []byte) {
	if sess.werr == nil {
		if _, err := sess.bw.Write(frame); err != nil {
			sess.werr = err
		} else {
			sess.s.stream.framesOut.Inc()
			sess.s.stream.bytesOut.Add(int64(len(frame)))
		}
	}
	if sess.werr == nil && len(sess.order) == 0 {
		if err := sess.bw.Flush(); err != nil {
			sess.werr = err
		}
	}
}

// finishSlot releases what the slot holds: the server concurrency slot and
// its in-flight group membership.
func (sess *session) finishSlot(slot *streamSlot) {
	s := sess.s
	if slot.holdsSlot {
		s.slots.release()
		s.metrics.inflight.Set(float64(s.slots.inUse()))
	}
	s.metrics.requestSeconds.Observe(time.Since(slot.start).Seconds())
	s.inflight.Done()
}

// enqueueStream adds an admitted frame to the tenant's coalescer, starting
// its flusher if idle. The flusher drains groups until the pending queue
// is empty; frames that arrive while a group is being decided merge into
// the next group.
func (s *Server) enqueueStream(t *tenant, r *streamReq) {
	t.coalMu.Lock()
	t.coalPending = append(t.coalPending, r)
	spawn := !t.coalActive
	if spawn {
		t.coalActive = true
	}
	t.coalMu.Unlock()
	if spawn {
		go s.streamFlusher(t)
	}
}

func (s *Server) streamFlusher(t *tenant) {
	for {
		t.coalMu.Lock()
		group := t.coalPending
		t.coalPending = nil
		if len(group) == 0 {
			t.coalActive = false
			t.coalMu.Unlock()
			return
		}
		t.coalMu.Unlock()
		if s.cfg.DisableStreamCoalesce {
			for _, r := range group {
				s.streamServeGroup(t, []*streamReq{r})
			}
		} else {
			s.streamServeGroup(t, group)
		}
	}
}

// streamServeGroup serves one coalesced group on tenant t: breaker gate,
// core acquisition, dedup pass, then one merged DecideBatch whose commit —
// dedup markers, group-commit journal sync, replica flush — is shared by
// every member. The batch itself runs in its own goroutine so a wedged
// tenant wedges at most this group: the flusher times out at the group's
// latest deadline and moves on (the writer has already answered the
// members with deadline errors), and the watchdog owns the stuck
// generation — exactly the HTTP path's abandonment semantics.
func (s *Server) streamServeGroup(t *tenant, group []*streamReq) {
	now := time.Now()
	t.mu.Lock()
	ok, retry := t.brk.admit(now)
	t.setStateLocked()
	t.mu.Unlock()
	if !ok {
		for range group {
			// Count each member's refusal, as the HTTP path would.
			s.metrics.shed("quarantined").Inc()
		}
		e := &apiError{status: http.StatusServiceUnavailable, code: "quarantined",
			msg: "tenant quarantined after fault", retryAfter: s.jit.spread(retry)}
		failGroup(group, e)
		return
	}
	latest := group[0].slot.deadline
	for _, r := range group[1:] {
		if r.slot.deadline.After(latest) {
			latest = r.slot.deadline
		}
	}
	ctx, cancel := context.WithDeadline(context.Background(), latest)
	defer cancel()

	var core *tenantCore
	for attempt := 0; ; attempt++ {
		c, aerr := s.ensureCore(ctx, t)
		if aerr != nil {
			failGroup(group, aerr)
			return
		}
		select {
		case c.sem <- struct{}{}:
		case <-ctx.Done():
			for _, r := range group {
				fillAPIError(r.slot, s.deadline())
			}
			return
		}
		t.mu.Lock()
		stale := t.core != c
		if !stale {
			t.busySince = time.Now()
		}
		t.mu.Unlock()
		if !stale {
			core = c
			break
		}
		<-c.sem
		if attempt < 2 {
			continue
		}
		failGroup(group, s.shed("recycled", http.StatusServiceUnavailable, "tenant recycling", s.cfg.BreakerBackoff))
		return
	}

	// Dedup pass under the tenant lock, holding the decision slot (the
	// same serialization the HTTP path gets from core.sem): window hits
	// answer immediately; in-group duplicates of an executing ID defer to
	// the freshly committed window after the batch.
	exec := make([]*streamReq, 0, len(group))
	var late []*streamReq
	var seen map[string]bool
	dedupOn := s.cfg.DedupWindow > 0
	t.mu.Lock()
	for _, r := range group {
		if dedupOn && r.reqID != "" {
			if hit, ok := t.dedup.lookup(r.reqID); ok {
				fillResult(r.slot, int64(hit.Decisions), hit.Threads, true)
				s.metrics.dedupHits.Inc()
				continue
			}
			if seen[r.reqID] {
				late = append(late, r)
				continue
			}
			if seen == nil {
				seen = make(map[string]bool)
			}
			seen[r.reqID] = true
		}
		exec = append(exec, r)
	}
	if len(exec) == 0 {
		t.busySince = time.Time{}
		t.mu.Unlock()
		<-core.sem
		return
	}
	t.mu.Unlock()
	s.stream.coalesced.Observe(float64(len(exec)))

	total := 0
	for _, r := range exec {
		total += len(r.obs)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		merged := make([]moe.Observation, 0, total)
		for _, r := range exec {
			merged = append(merged, r.obs...)
		}
		res := &decideResult{}
		func() {
			defer func() {
				if p := recover(); p != nil {
					res.panicked = fmt.Sprint(p)
					res.threads = nil
				}
			}()
			res.threads = core.rt.DecideBatch(merged)
			res.decisions = int64(core.rt.Decisions())
		}()
		s.commitStreamGroup(t, core, exec, res)
		s.finishDecide(t, core, res)
		s.fillStreamGroup(t, exec, late, res)
		<-core.sem
	}()
	wait := time.Until(latest)
	if wait < 0 {
		wait = 0
	}
	tm := time.NewTimer(wait + 50*time.Millisecond)
	select {
	case <-done:
		tm.Stop()
	case <-tm.C:
		// The group is past every member's deadline (the writer has told
		// them so). Leave the decide goroutine to the watchdog and serve
		// the next group — on this generation if it recovers, on the
		// rebuilt one otherwise.
	}
}

func failGroup(group []*streamReq, e *apiError) {
	for _, r := range group {
		fillAPIError(r.slot, e)
	}
}

// commitStreamGroup is commitBatch for a coalesced group: per-member dedup
// markers journaled behind the merged batch's entries, then one commit for
// the whole group — before any member's ack can be written. Per-member
// decision counts and thread sub-slices fall out of prefix sums over the
// merged result (DecideBatch answers one decision per observation, in
// order).
func (s *Server) commitStreamGroup(t *tenant, core *tenantCore, exec []*streamReq, res *decideResult) {
	if res.panicked != "" || !t.serves(core) {
		return
	}
	cerr := core.rt.CheckpointErr()
	off := 0
	count := res.decisions - int64(len(res.threads))
	for _, r := range exec {
		sub := res.threads[off : off+len(r.obs)]
		off += len(r.obs)
		count += int64(len(r.obs))
		r.decisions = count
		r.threads = sub
		if r.reqID != "" {
			cerr = s.markDedup(t, core, checkpoint.DedupEntry{ID: r.reqID, Decisions: int(count), Threads: sub}, cerr)
		}
	}
	s.commit(t, core, cerr, res)
}

// fillStreamGroup answers every member after the commit: results for the
// executed members, window answers for in-group duplicates, one shared
// fault for all of them when the batch panicked or the ack was fenced.
func (s *Server) fillStreamGroup(t *tenant, exec, late []*streamReq, res *decideResult) {
	if res.panicked != "" {
		e := &apiError{status: http.StatusInternalServerError, code: "tenant-fault",
			msg: "tenant decision faulted; tenant quarantined", retryAfter: s.jit.spread(s.cfg.BreakerBackoff)}
		for _, r := range exec {
			fillAPIError(r.slot, e)
		}
		for _, r := range late {
			fillAPIError(r.slot, e)
		}
		return
	}
	if res.deposed {
		for _, r := range exec {
			fillAPIError(r.slot, s.shed("deposed", http.StatusServiceUnavailable,
				"deposed by promoted standby; decision not acknowledged", time.Second))
		}
		for _, r := range late {
			fillAPIError(r.slot, s.shed("deposed", http.StatusServiceUnavailable,
				"deposed by promoted standby; decision not acknowledged", time.Second))
		}
		return
	}
	for _, r := range exec {
		fillResult(r.slot, r.decisions, r.threads, false)
	}
	for _, r := range late {
		t.mu.Lock()
		hit, ok := t.dedup.lookup(r.reqID)
		t.mu.Unlock()
		if ok {
			fillResult(r.slot, int64(hit.Decisions), hit.Threads, true)
			s.metrics.dedupHits.Inc()
		} else {
			// The twin it deferred to committed, but the window has already
			// evicted it (pathologically small window): refuse rather than
			// decide twice under one ID.
			fillAPIError(r.slot, &apiError{status: http.StatusConflict, code: "dedup-evicted",
				msg: "duplicate request id raced its twin out of the dedup window"})
		}
	}
}

// serveDemoted serves the JSON ladder on a stream connection that never
// spoke wire: each JSON value on the stream is a decide request run
// through the same envelope, answered as one JSON line, flushed as it
// goes. EOF ends the session.
func (s *Server) serveDemoted(br *bufio.Reader, bw *bufio.Writer) {
	dec := json.NewDecoder(io.LimitReader(br, 64<<20))
	enc := json.NewEncoder(bw)
	for {
		var req decideRequest
		if err := dec.Decode(&req); err != nil {
			if !errors.Is(err, io.EOF) {
				enc.Encode(errorResponse{Error: "malformed JSON line: " + err.Error(), Code: "bad-request"})
			}
			break
		}
		resp, aerr := s.demotedServeOne(&req)
		if aerr != nil {
			enc.Encode(errorResponse{Error: aerr.msg, Code: aerr.code, RetryAfterMs: aerr.retryAfter.Milliseconds()})
		} else {
			enc.Encode(resp)
		}
		if bw.Flush() != nil {
			break
		}
	}
	bw.Flush()
}

// demotedServeOne is the admission envelope + serveOne for one demoted
// JSON request (the stream twin of handleDecide's per-request section).
func (s *Server) demotedServeOne(req *decideRequest) (*decideResponse, *apiError) {
	s.inflight.Add(1)
	defer s.inflight.Done()
	if s.draining.Load() {
		return nil, s.shed("draining", http.StatusServiceUnavailable, "server is draining", time.Second)
	}
	if !s.serving.Load() {
		return nil, s.shed("standby", http.StatusServiceUnavailable, "standby; not serving until promoted", time.Second)
	}
	if s.primary != nil && s.primary.Deposed() {
		return nil, s.shed("deposed", http.StatusServiceUnavailable, "deposed by promoted standby", time.Second)
	}
	if ok, retry := s.bucket.take(time.Now()); !ok {
		return nil, s.shed("rate", http.StatusTooManyRequests, "request rate over limit", retry)
	}
	if !s.slots.tryAcquire() {
		return nil, s.shed("capacity", http.StatusServiceUnavailable, "all decision slots busy", 100*time.Millisecond)
	}
	defer func() {
		s.slots.release()
		s.metrics.inflight.Set(float64(s.slots.inUse()))
	}()
	s.metrics.inflight.Set(float64(s.slots.inUse()))
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DefaultDeadline)
	defer cancel()
	return s.serveOne(ctx, req)
}

// Session registry: Drain closes sessions after the final snapshots (their
// in-flight frames were already waited out through the inflight group);
// Close closes listeners so accept loops end.
func (s *Server) trackSession(conn net.Conn) bool {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if s.sessClosed || s.draining.Load() {
		return false
	}
	if s.sessions == nil {
		s.sessions = make(map[net.Conn]struct{})
	}
	s.sessions[conn] = struct{}{}
	return true
}

func (s *Server) untrackSession(conn net.Conn) {
	s.sessMu.Lock()
	delete(s.sessions, conn)
	s.sessMu.Unlock()
}

func (s *Server) closeStreamSessions() {
	s.sessMu.Lock()
	s.sessClosed = true
	conns := make([]net.Conn, 0, len(s.sessions))
	for c := range s.sessions {
		conns = append(conns, c)
	}
	s.sessMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (s *Server) closeStreamListeners() {
	s.sessMu.Lock()
	lns := s.listeners
	s.listeners = nil
	s.sessMu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
}

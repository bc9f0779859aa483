package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"moe"
	"moe/internal/telemetry"
	"moe/internal/wire"
)

// The streaming transport (DESIGN.md §16): the wire codec over the serve
// pipeline. One connection carries many decide frames; the session splits
// into two goroutine halves joined by an arrival-ordered request queue:
//
//	decode loop ──► admit, validate ──► tenant coalescer ──► group serve
//	     │                                                       │ fills
//	     └──────────────── order queue ──► write loop ◄──────────┘
//
// The decode loop parses frames and admits each one on its own; refusals
// become per-frame error frames instead of HTTP statuses. Responses are
// written strictly in frame arrival order by a single writer that flushes
// once per quiet edge, so a coalesced group costs one syscall, not one per
// frame.

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
		"Decide requests of every transport merged into one DecideBatch by the per-tenant coalescer.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128})
	m.demotions = reg.Counter("serve_stream_demotions_total",
		"Stream sessions demoted to the JSON ladder at handshake.")
	m.gcFsyncs = reg.Counter("serve_stream_group_commit_fsyncs_total",
		"Journal fsyncs issued by group commits, every transport alike.")
	m.gcSaved = reg.Counter("serve_stream_group_commit_fsyncs_saved_total",
		"Journal fsyncs avoided by group commit (vs per-append fsync), every transport alike.")
}

// session is one streaming connection.
type session struct {
	s       *Server
	conn    net.Conn
	bw      *bufio.Writer
	order   chan *request
	scratch []byte // writer-owned encode buffer for response frames
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

	sess := &session{s: s, conn: conn, bw: bw, order: make(chan *request, s.cfg.MaxInflight+16)}

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

// enqueueError queues a refusal for a frame that never reached admission.
func (sess *session) enqueueError(seq uint64, now time.Time, e *apiError) {
	sess.s.inflight.Add(1)
	r := newRequest(now, sess.s.cfg.DefaultDeadline)
	r.seq, r.start = seq, now
	r.fail(e)
	sess.order <- r
}

// handleDecideFrame is the wire codec's decode side: it builds the frame's
// request, runs it through admission and validation, and hands it to its
// tenant's coalescer — or answers it with the refusal — in arrival order.
func (sess *session) handleDecideFrame(payload []byte, req *wire.Decide) {
	s := sess.s
	now := time.Now()
	if err := wire.ParseDecide(payload, req); err != nil {
		// The frame passed its checksum, so this is a malformed payload
		// from a confused client, not line noise: refuse it, keep the
		// session.
		sess.enqueueError(req.Seq, now, badRequest(err.Error()))
		return
	}
	deadline := s.deadlineFor(req.DeadlineMs)
	// Joining the in-flight group before the drain gate gives streams the
	// same guarantee HTTP requests get: every admitted frame is flushed
	// (and journaled) before the drain's final snapshots.
	s.inflight.Add(1)
	r := newRequest(now, deadline)
	r.seq, r.start = req.Seq, now
	if aerr := s.admit(now); aerr != nil {
		r.fail(aerr)
	} else {
		r.holdsSlot = true
		r.reqID = string(req.RequestID)
		if t, aerr := s.validate(string(req.Tenant), r.reqID, len(req.Obs)); aerr != nil {
			r.fail(aerr)
		} else {
			r.tenant = t
			// req.Obs aliases the frame read buffer; the coalescer outlives it.
			r.obs = append([]moe.Observation(nil), req.Obs...)
			s.enqueue(r)
		}
	}
	sess.order <- r
}

// writeLoop is the session's single writer and the wire codec's encode
// side: requests leave in arrival order, each awaited until at most its own
// deadline. The buffered writer is flushed on quiet edges — when the queue
// momentarily empties — so a coalesced group's responses share one flush.
func (sess *session) writeLoop() {
	s := sess.s
	for r := range sess.order {
		if aerr := s.await(r); aerr != nil {
			sess.scratch = wire.AppendError(sess.scratch[:0], r.seq, aerr.retryAfter.Milliseconds(), aerr.code, aerr.msg)
		} else {
			res := wire.Result{Seq: r.seq, Decisions: r.decisions, Deduped: r.deduped, Threads: r.threads}
			sess.scratch = wire.AppendResult(sess.scratch[:0], &res)
		}
		sess.write(sess.scratch)
		if r.holdsSlot {
			s.releaseSlot()
		}
		s.metrics.requestSeconds.Observe(time.Since(r.start).Seconds())
		s.inflight.Done()
	}
}

// write appends one frame to the buffered writer, flushing on quiet edges.
// After the first connection error, frames are dropped silently: requests
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

// serveDemoted serves the JSON ladder on a stream connection that never
// spoke wire: each JSON value on the stream is admitted on its own and
// served as a JSON request, answered as one JSON line, flushed as it goes.
// EOF ends the session.
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
		var resp *decideResponse
		s.inflight.Add(1)
		aerr := s.admit(time.Now())
		if aerr == nil {
			resp, aerr = s.serveJSON(&req, s.cfg.DefaultDeadline)
			s.releaseSlot()
		}
		s.inflight.Done()
		if aerr != nil {
			enc.Encode(aerr.response())
		} else {
			enc.Encode(resp)
		}
		if bw.Flush() != nil {
			break
		}
	}
	bw.Flush()
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

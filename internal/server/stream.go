// GET /v1/stream — the persistent streaming entry point.
//
// The handler hijacks the HTTP connection after a wats-stream/1
// upgrade and speaks internal/wire frames over it: a HELLO with the
// workload table, then pipelined SUBMITs in and RESULTs out, results
// in completion order correlated by client-chosen request ids.
//
// One session is two goroutines: the handler goroutine reads SUBMIT
// frames, runs admission, and spawns jobs on pooled records
// (modeStream); a single writer goroutine owns the connection's write
// side and encodes RESULT frames from the session queue, which both
// finished jobs (via jobRec.afterFinish) and synthetic rejections
// (shed, draining, bad request — decided on the read side) flow
// through, so frame writes never interleave. The session WaitGroup
// counts every queued message; when the reader sees EOF it waits for
// in-flight jobs to finish and their results to be written, closes the
// queue, and the writer exits — which is exactly the zero-drop drain
// property: jobs admitted before a drain or disconnect still complete
// and are accounted, matching the unary path's semantics. A client
// silent for streamIdleTimeout counts as disconnected.
package server

import (
	"bufio"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"wats/internal/wire"
)

// streamWriteTimeout bounds one RESULT write; a client that stops
// reading forfeits the remaining results (they are drained and
// discarded so the records still recycle and jobs still account).
const streamWriteTimeout = 10 * time.Second

// streamIdleTimeout bounds how long the read side waits for the next
// SUBMIT frame or the rest of one. A client that upgrades and then goes
// silent, or stops mid-frame, has its read side ended as if it had sent
// EOF: admitted jobs still finish and their results are still written.
// A var so tests can shorten it.
var streamIdleTimeout = 2 * time.Minute

// submitFrameLen is the size of a SUBMIT frame, the only frame a client
// sends.
var submitFrameLen = len(wire.AppendSubmit(nil, &wire.Submit{}))

// streamQueueDepth is the session queue capacity. Submissions beyond it
// backpressure the producer (the finalizing worker or the reader), not
// the runtime.
const streamQueueDepth = 256

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Upgrade") != wire.Proto {
		httpError(w, http.StatusBadRequest, "expected Upgrade: %s", wire.Proto)
		return
	}
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining: not accepting streams")
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		httpError(w, http.StatusInternalServerError, "connection does not support hijacking")
		return
	}
	conn, bufrw, err := hj.Hijack()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "hijack: %v", err)
		return
	}
	s.serveStream(conn, bufrw)
}

// streamSession is one hijacked connection's state.
type streamSession struct {
	srv  *Server
	conn net.Conn
	outq chan streamOut
	wg   sync.WaitGroup // one count per queued message (job or rejection)
	idle time.Duration  // streamIdleTimeout when the session began

	// byID maps wire workload ids (HELLO table order) to workloads.
	byID []Workload
}

func (s *Server) serveStream(conn net.Conn, bufrw *bufio.ReadWriter) {
	defer conn.Close()
	ss := &streamSession{
		srv:  s,
		conn: conn,
		outq: make(chan streamOut, streamQueueDepth),
		idle: streamIdleTimeout,
	}
	names := make([]string, 0, len(s.cfg.Workloads))
	for n := range s.cfg.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	entries := make([]wire.HelloEntry, 0, len(names))
	for i, n := range names {
		wl := s.cfg.Workloads[n]
		ss.byID = append(ss.byID, wl)
		entries = append(entries, wire.HelloEntry{ID: uint8(i), Name: wl.Name, Class: wl.Class})
	}
	if _, err := bufrw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + wire.Proto + "\r\n\r\n"); err != nil {
		return
	}
	hello := wire.AppendHello(make([]byte, 0, 512), entries)
	if _, err := bufrw.Write(hello); err != nil {
		return
	}
	if err := bufrw.Flush(); err != nil {
		return
	}

	writerDone := make(chan struct{})
	go ss.writer(bufrw.Writer, writerDone)
	ss.read(bufrw.Reader)
	// Reader is done (EOF, protocol error, or client went away): every
	// admitted job still finishes and writes its result — the zero-drop
	// property a SIGTERM drain relies on.
	ss.wg.Wait()
	close(ss.outq)
	<-writerDone
}

// read is the session's receive loop: parse SUBMIT frames, admit, spawn.
func (ss *streamSession) read(br *bufio.Reader) {
	s := ss.srv
	buf := make([]byte, 0, 256)
	var sub wire.Submit
	// The deadline is re-armed only when the next frame is not already
	// buffered, so a pipelining client pays no deadline call per frame. A
	// whole frame read from the buffer never touches the connection, so a
	// deadline armed earlier cannot cut one short; one that claims another
	// length ends the session anyway.
	_ = ss.conn.SetReadDeadline(time.Now().Add(ss.idle))
	for {
		if br.Buffered() < submitFrameLen {
			_ = ss.conn.SetReadDeadline(time.Now().Add(ss.idle))
		}
		ft, payload, nbuf, err := wire.ReadFrame(br, buf[:cap(buf)])
		buf = nbuf
		if err != nil {
			return // EOF, the idle deadline, or a broken connection
		}
		if ft != wire.FrameSubmit {
			return // protocol error: only SUBMIT flows client→server
		}
		if err := wire.ParseSubmit(payload, &sub); err != nil {
			return
		}
		if int(sub.Workload) >= len(ss.byID) {
			ss.reject(sub.ID, wire.OutcomeBadReq, "unknown workload id")
			continue
		}
		wl := &ss.byID[sub.Workload]
		p := Params{Size: int(sub.Size), Seed: sub.Seed, N: int(sub.N), Generations: int(sub.Generations)}
		if err := p.Validate(); err != nil {
			ss.reject(sub.ID, wire.OutcomeBadReq, err.Error())
			continue
		}
		if s.draining.Load() {
			ss.reject(sub.ID, wire.OutcomeDraining, "draining: not accepting jobs")
			continue
		}
		if s.reserve(1) == 0 {
			s.metrics.Shed()
			ss.reject(sub.ID, wire.OutcomeShed, "")
			continue
		}
		deadline := s.cfg.DefaultDeadline
		if sub.DeadlineMS > 0 {
			deadline = time.Duration(sub.DeadlineMS) * time.Millisecond
		}
		s.metrics.Submitted()
		rec := s.newRec()
		rec.notify = ss.outq
		rec.streamID = sub.ID
		ss.wg.Add(1)
		if err := s.startJob(rec, wl, p, deadline, modeStream); err != nil {
			// The record finalized as failed and its result frame is
			// already queued (afterFinish ran inline); only the runtime's
			// reference is missing — drop it for them.
			rec.unref()
		}
	}
}

// reject queues a synthetic non-job RESULT.
func (ss *streamSession) reject(reqID uint64, outcome byte, msg string) {
	ss.wg.Add(1)
	ss.outq <- streamOut{reqID: reqID, outcome: outcome, err: msg}
}

// writer owns the connection's write side: it encodes RESULT frames
// from the queue into a reused buffer, flushing whenever the queue goes
// momentarily empty. After a write error it keeps draining (records
// must still unref, the WaitGroup must still count down) but stops
// writing.
func (ss *streamSession) writer(bw *bufio.Writer, done chan struct{}) {
	defer close(done)
	buf := make([]byte, 0, 512)
	var res wire.Result
	var werr error
	for out := range ss.outq {
		res = wire.Result{ID: out.reqID, Outcome: out.outcome, Err: out.err}
		if out.rec != nil {
			ss.fill(&res, out.rec)
		}
		if res.Outcome == wire.OutcomeShed {
			res.RetryAfterMS = ss.srv.cfg.RetryAfter.Milliseconds()
		}
		if werr == nil {
			buf = wire.AppendResult(buf[:0], &res)
			_ = ss.conn.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
			if _, err := bw.Write(buf); err != nil {
				werr = err
			} else if len(ss.outq) == 0 {
				if err := bw.Flush(); err != nil {
					werr = err
				}
			}
		}
		if out.rec != nil {
			out.rec.unref()
		}
		ss.wg.Done()
	}
	if werr == nil {
		_ = ss.conn.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
		_ = bw.Flush()
	}
}

// fill maps a finished record onto the wire result.
func (ss *streamSession) fill(res *wire.Result, r *jobRec) {
	r.mu.Lock()
	status, errStr, detail := r.status, r.errStr, r.detail
	started, finished, submitted := r.started, r.finished, r.submitted
	r.mu.Unlock()
	switch status {
	case StatusCompleted:
		res.Outcome = wire.OutcomeOK
	case StatusExpired:
		res.Outcome = wire.OutcomeExpired
	case StatusPanicked:
		res.Outcome = wire.OutcomePanicked
	default:
		res.Outcome = wire.OutcomeFailed
	}
	switch {
	case !started.IsZero():
		res.QueueWaitUS = started.Sub(submitted).Microseconds()
	case !finished.IsZero():
		res.QueueWaitUS = finished.Sub(submitted).Microseconds()
	}
	if !finished.IsZero() && !started.IsZero() {
		res.ExecUS = finished.Sub(started).Microseconds()
	}
	if detail != "" {
		res.Err = errStr + ": " + detail
	} else {
		res.Err = errStr
	}
}

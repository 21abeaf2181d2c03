// Pooled job lifecycle: the zero-allocation admission path.
//
// The original lifecycle allocated per job: a record, two contexts, a
// timer, a done channel, a watcher goroutine, and an encoding/json pass
// on the response. At service rates the admission path — not the
// scheduler — became the bottleneck, so this file replaces all of it
// with a pooled jobRec that is recycled once both of its owners are
// done with it:
//
//   - the responder (HTTP handler, batch slot, or stream writer) holds
//     one reference until it has encoded the response, and
//   - the runtime holds the other until it has retired the root task
//     (release callback from SpawnJobRelease, which fires strictly
//     after the runtime's last touch of the task record).
//
// refs hitting zero recycles the record into the server's pool. The
// ledger and obs layers copy what they need at emission time and never
// retain a pointer into the record, so recycling needs no coordination
// with them (DESIGN.md §12 has the full ownership table).
//
// Deadlines are tracked by a single wheel goroutine over a min-heap
// instead of a per-job timer + watcher goroutine; a job's entry leaves
// the heap when it finalizes. Entries carry the record's generation, so
// one popped as its record was recycled and reused is a no-op.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wats/internal/runtime"
)

// Response modes: who is waiting for the job to finish.
const (
	modeSync   int8 = iota // unary or batch handler blocked on done
	modeAsync              // submit-and-poll; record owned by the jobs map
	modeStream             // result frame pushed to the connection's writer
)

// closedChan is returned by jobCtx.Done when the context was cancelled
// before anyone asked for the channel — no allocation for the common
// case of a job that completes without a waiter.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Preallocated error boxes so storing a cancellation cause is a pointer
// write, not an interface allocation.
var (
	jcCanceled error = context.Canceled
	jcDeadline error = context.DeadlineExceeded
)

// jobCtx is a reusable context.Context for one job generation. It
// exists because context.WithCancelCause + WithTimeout allocate four
// objects and a timer per job; this is a flat struct embedded in the
// jobRec. The runtime only ever reads Err/Done/Deadline through the
// context interface (the *jobRec pointer is already in the interface
// header, so the conversion does not allocate).
type jobCtx struct {
	mu       sync.Mutex
	done     chan struct{} // lazily allocated; nil until someone waits
	err      atomic.Pointer[error]
	cause    error
	deadline time.Time
}

func (c *jobCtx) Deadline() (time.Time, bool) { return c.deadline, !c.deadline.IsZero() }

func (c *jobCtx) Err() error {
	if p := c.err.Load(); p != nil {
		return *p
	}
	return nil
}

func (c *jobCtx) Value(any) any { return nil }

func (c *jobCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		if c.err.Load() != nil {
			return closedChan
		}
		c.done = make(chan struct{})
	}
	return c.done
}

// Cause mirrors context.Cause for this custom context: the stdlib
// helper only understands its own cancelCtx type and would fall back to
// Err(), hiding a panic cause.
func (c *jobCtx) Cause() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cause != nil {
		return c.cause
	}
	return c.Err()
}

// cancel resolves the context once; later calls are no-ops. err must be
// context.Canceled or context.DeadlineExceeded.
func (c *jobCtx) cancel(err, cause error) {
	box := &jcCanceled
	if err == context.DeadlineExceeded {
		box = &jcDeadline
	}
	c.mu.Lock()
	if c.err.Load() != nil {
		c.mu.Unlock()
		return
	}
	c.cause = cause
	c.err.Store(box)
	if c.done != nil {
		close(c.done)
	}
	c.mu.Unlock()
}

// reset rearms the context for the next generation. Only called when
// both owners have released the record, so nothing can be selecting on
// the old done channel.
func (c *jobCtx) reset(deadline time.Time) {
	c.mu.Lock()
	c.done = nil
	c.cause = nil
	c.deadline = deadline
	c.err.Store(nil)
	c.mu.Unlock()
}

// jobRec is the pooled server-side job record. Submission-time fields
// (mode, idn, workload, class, run, params, submitted, streamID) are
// written by startJob before the root is spawned and are read-only
// until recycle; outcome fields are guarded by mu. gen is incremented
// at recycle under mu so stale deadline-wheel entries can detect reuse.
type jobRec struct {
	srv *Server

	mu        sync.Mutex
	gen       uint64
	finalized bool
	status    string
	started   time.Time
	finished  time.Time
	result    any
	errStr    string
	detail    string

	mode      int8
	idn       uint64
	idStr     string // async only: the map key; pooled modes render the id into buf
	workload  string
	class     string
	run       func(*runtime.Ctx, Params) (any, error)
	params    Params
	submitted time.Time

	refs atomic.Int32

	jc jobCtx

	done     chan struct{}    // cap 1; finalize sends one token for the sync responder
	notify   chan<- streamOut // stream mode: the connection's writer queue
	streamID uint64           // stream mode: client-chosen request id

	// Method values bound once at construction so SpawnJobRelease gets
	// the same closures every generation instead of allocating new ones.
	rootFn    func(*runtime.Ctx)
	abortFn   func(error)
	releaseFn func()

	buf []byte // response encoding scratch, retained across generations

	wheelIdx int // heap index of this generation's deadline entry, -1 if none; guarded by srv.wheel.mu
}

// streamOut is one entry on a stream connection's writer queue: either
// a finalized record to encode (rec != nil) or a synthetic rejection.
type streamOut struct {
	rec     *jobRec
	reqID   uint64
	outcome uint8
	err     string
}

// newRecRaw builds an unpooled record with its closures bound. Pooled
// records come from Server.newRec; async records are built here
// directly since they are owned by the jobs map and never recycled.
func (s *Server) newRecRaw() *jobRec {
	r := &jobRec{srv: s, done: make(chan struct{}, 1), buf: make([]byte, 0, 512), wheelIdx: -1}
	r.rootFn = r.runRoot
	r.abortFn = r.onAbort
	r.releaseFn = r.unref
	return r
}

func (s *Server) newRec() *jobRec { return s.recPool.Get().(*jobRec) }

// recycle returns a pooled record after both owners released it. Async
// records are map-owned and excluded (their single runtime unref can
// never reach zero refs — refs start at 2 and the map never unrefs).
func (s *Server) recycle(r *jobRec) {
	r.mu.Lock()
	r.gen++
	r.result = nil
	r.mu.Unlock()
	r.notify = nil
	r.streamID = 0
	// Drain a done token left by a responder that gave up (spawn error
	// paths); the next generation must start with an empty channel.
	select {
	case <-r.done:
	default:
	}
	s.recPool.Put(r)
}

// unref drops one ownership reference (responder or runtime release);
// the last one out recycles the record.
func (r *jobRec) unref() {
	if r.refs.Add(-1) == 0 {
		r.srv.recycle(r)
	}
}

// startJob initializes r for one admitted job and spawns its root. The
// caller must already hold an admission slot (reserve) and have counted
// metrics.Submitted. On error (runtime shut down) the job has been
// finalized as failed and no release callback will come — the caller
// still owns both references.
func (s *Server) startJob(r *jobRec, wl *Workload, p Params, deadline time.Duration, mode int8) error {
	now := time.Now()
	r.mode = mode
	r.workload, r.class, r.run = wl.Name, wl.Class, wl.Run
	r.params = p
	r.submitted = now
	var dl time.Time
	if deadline > 0 {
		dl = now.Add(deadline)
	}
	r.jc.reset(dl)
	r.mu.Lock()
	r.status = StatusQueued
	r.finalized = false
	r.started, r.finished = time.Time{}, time.Time{}
	r.result, r.errStr, r.detail = nil, "", ""
	gen := r.gen
	r.mu.Unlock()
	if r.idStr == "" {
		r.idn = s.idSeq.Add(1)
	}
	r.refs.Store(2)
	// The generation was snapshotted before the spawn: once the root is
	// in a queue the record may finish, be released, and be recycled at
	// any moment, after which r.gen belongs to the next job. Arming first
	// puts every finalization, which drops the entry, after it.
	if !dl.IsZero() {
		s.wheel.arm(r, gen, dl)
	}
	if err := s.rt.SpawnJobRelease(&r.jc, r.abortFn, r.releaseFn, r.class, r.rootFn); err != nil {
		r.finish(nil, err, now, time.Now())
		return err
	}
	return nil
}

// runRoot is the root task body (bound once as rootFn). It mirrors the
// original closure: mark running, run the workload, fold in a
// cancellation that raced the body, surface the cause, finalize.
func (r *jobRec) runRoot(ctx *runtime.Ctx) {
	start := time.Now()
	r.mu.Lock()
	if !r.finalized {
		r.status, r.started = StatusRunning, start
	}
	r.mu.Unlock()
	// A panicking workload finalizes the job here (exact timings) and
	// rethrows so the runtime's isolation layer still accounts the panic
	// and poisons the job context — the worker survives either way.
	defer func() {
		if p := recover(); p != nil {
			r.finish(nil, &runtime.TaskPanicError{
				Class: r.class, Worker: ctx.Worker, Value: p,
			}, start, time.Now())
			panic(p)
		}
	}()
	res, err := r.run(ctx, r.params)
	if err == nil && r.jc.Err() != nil {
		// Poisoned or expired while the body ran to completion anyway;
		// the cause, not the result, is the outcome.
		err = r.jc.Err()
	}
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		if cause := r.jc.Cause(); cause != nil {
			err = cause
		}
	}
	r.finish(res, err, start, time.Now())
}

// onAbort is the runtime's poison hook (bound once as abortFn): a task
// panic anywhere in the job's tree finalizes it as a structured 500, an
// injected cancel as expired; either way the job context is cancelled
// so queued siblings retire at the runtime's cancellation points.
func (r *jobRec) onAbort(err error) {
	var pe *runtime.TaskPanicError
	if errors.As(err, &pe) {
		r.jc.cancel(context.Canceled, pe)
		r.finish(nil, pe, r.submitted, time.Now())
		return
	}
	r.jc.cancel(context.Canceled, err)
	r.finish(nil, context.Canceled, r.submitted, time.Now())
}

// finOut carries a finalization's post-lock actions out of the critical
// section.
type finOut struct {
	status    string
	class     string
	mode      int8
	queueWait time.Duration
	exec      time.Duration
}

// finishLocked resolves the outcome fields under r.mu (held by caller).
func (r *jobRec) finishLocked(res any, err error, start, end time.Time) finOut {
	r.finalized = true
	if r.started.IsZero() && !start.IsZero() {
		r.started = start
	}
	r.finished, r.result = end, res
	if err == nil {
		r.status = StatusCompleted
	} else {
		// Classification lives in its own function: errors.As takes the
		// target's address, which would heap-allocate the pointer at
		// every finishLocked entry — including the zero-alloc happy path
		// — if it were declared here.
		r.status, r.errStr, r.detail = classifyJobErr(err)
	}
	out := finOut{status: r.status, class: r.class, mode: r.mode}
	if !r.started.IsZero() {
		out.queueWait = r.started.Sub(r.submitted)
		out.exec = end.Sub(r.started)
	} else {
		out.queueWait = end.Sub(r.submitted)
	}
	return out
}

// classifyJobErr maps a non-nil job error to (status, error, detail).
// Only failing jobs pay its errors.As allocation.
func classifyJobErr(err error) (status, errStr, detail string) {
	var pe *runtime.TaskPanicError
	switch {
	case errors.As(err, &pe):
		return StatusPanicked, "panic", pe.Error()
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return StatusExpired, err.Error(), ""
	default:
		return StatusFailed, err.Error(), ""
	}
}

// finish resolves the job exactly once; losers (late root return after
// a wheel expiry, a second abort) are no-ops.
func (r *jobRec) finish(res any, err error, start, end time.Time) {
	r.mu.Lock()
	if r.finalized {
		r.mu.Unlock()
		return
	}
	out := r.finishLocked(res, err, start, end)
	r.mu.Unlock()
	r.afterFinish(out)
}

// expire is the deadline wheel's callback. The generation guard and the
// finalized check happen in the same critical section as the field
// writes: a recycled-and-reused record must never be corrupted by a
// stale entry.
func (r *jobRec) expire(gen uint64) {
	now := time.Now()
	r.mu.Lock()
	if r.gen != gen || r.finalized {
		r.mu.Unlock()
		return
	}
	out := r.finishLocked(nil, context.DeadlineExceeded, time.Time{}, now)
	r.mu.Unlock()
	// Cancel after winning finalization so a queued root drops at the
	// runtime's cancellation point; the record cannot be recycled before
	// afterFinish signals the responder, so jc is still this generation.
	r.jc.cancel(context.DeadlineExceeded, nil)
	r.afterFinish(out)
}

// abandon finalizes the job as cancelled on behalf of a caller that
// stopped waiting — a disconnected client, or a hedged gate attempt
// losing the race. Winning finalization cancels the job context so the
// body retires at the runtime's next cancellation point and the job is
// accounted expired, never completed: a hedge loser must not double the
// completed count. Losing (the job finished first) is a no-op and the
// real outcome stands.
func (r *jobRec) abandon() {
	now := time.Now()
	r.mu.Lock()
	if r.finalized {
		r.mu.Unlock()
		return
	}
	out := r.finishLocked(nil, context.Canceled, time.Time{}, now)
	r.mu.Unlock()
	r.jc.cancel(context.Canceled, nil)
	r.afterFinish(out)
}

// afterFinish runs the post-finalization actions outside r.mu: eviction
// bookkeeping (async), the admission slot, metrics, and waking whoever
// is waiting on the outcome.
func (r *jobRec) afterFinish(out finOut) {
	s := r.srv
	if !r.jc.deadline.IsZero() {
		s.wheel.drop(r)
	}
	if out.mode == modeAsync {
		s.mu.Lock()
		s.evictLocked(r.idStr)
		s.mu.Unlock()
	}
	s.inflight.Add(-1)
	switch out.status {
	case StatusCompleted:
		s.metrics.Completed(out.class, out.queueWait, out.exec)
	case StatusExpired:
		s.metrics.Expired(out.class, out.queueWait)
	case StatusPanicked:
		s.metrics.Panicked()
	default:
		s.metrics.Failed()
	}
	switch out.mode {
	case modeSync:
		r.done <- struct{}{}
	case modeStream:
		r.notify <- streamOut{rec: r, reqID: r.streamID}
	}
}

// reserve claims admission slots for up to want jobs against both
// gates: the runtime queue-depth shed threshold (all-or-nothing, same
// as the unary path) and the bounded in-flight count (partial — a batch
// takes whatever headroom remains). Returns how many were admitted; the
// caller owes one inflight decrement per admitted job (finalization
// pays it).
func (s *Server) reserve(want int) int {
	if want <= 0 {
		return 0
	}
	if q := s.rt.QueuedTasks(); q >= s.cfg.ShedQueueDepth {
		return 0
	} else if h := s.cfg.ShedQueueDepth - q; h < want {
		want = h
	}
	for {
		cur := s.inflight.Load()
		free := int64(s.cfg.MaxInflight) - cur
		if free <= 0 {
			return 0
		}
		take := int64(want)
		if take > free {
			take = free
		}
		if s.inflight.CompareAndSwap(cur, cur+take) {
			return int(take)
		}
	}
}

// submitSync is the pooled unary core: spawn (the caller already
// reserved admission and counted Submitted), wait, encode. On success
// the response body is in r.buf and the caller must unref r after
// writing it; on spawn failure it returns (nil, 503) with the record
// already recycled. Allocation-free for workloads whose results encode
// without reflection (nil results and the scalar fast paths in
// appendResult). A dying ctx (client gone, hedge loser cancelled)
// abandons the job: exactly one done token arrives either way, because
// only the finalization winner's afterFinish sends it.
func (s *Server) submitSync(ctx context.Context, wl *Workload, p Params, deadline time.Duration) (*jobRec, int) {
	r := s.newRec()
	if err := s.startJob(r, wl, p, deadline, modeSync); err != nil {
		// No release is coming; drop both references ourselves. The done
		// token the finalize sent is drained by recycle.
		r.unref()
		r.unref()
		return nil, http.StatusServiceUnavailable
	}
	select {
	case <-r.done:
	case <-ctx.Done():
		r.abandon()
		<-r.done
	}
	r.buf = append(r.appendResponse(r.buf[:0]), '\n')
	return r, httpStatusFor(r.statusLocked())
}

func (r *jobRec) statusLocked() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status
}

// view snapshots the record as a JobView (async responses and the poll
// endpoint; the pooled paths encode straight into buf instead).
func (r *jobRec) view() JobView {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := JobView{
		ID: r.idStr, Workload: r.workload, Status: r.status,
		Result: r.result, Error: r.errStr, Detail: r.detail,
	}
	switch {
	case !r.started.IsZero():
		v.QueueWaitMS = ms(r.started.Sub(r.submitted))
	case !r.finished.IsZero():
		v.QueueWaitMS = ms(r.finished.Sub(r.submitted))
	}
	if !r.finished.IsZero() && !r.started.IsZero() {
		exec := r.finished.Sub(r.started)
		v.ExecMS = ms(exec)
		f1 := r.srv.rt.BaseArch().Groups[0].Freq
		v.EnergyJ = r.srv.rt.EnergyModel().Power(f1) * exec.Seconds()
	}
	return v
}

// ---------------------------------------------------------------------
// Deadline wheel: one goroutine, one timer, a min-heap of (when, gen,
// rec). Replaces a per-job context timer plus watcher goroutine.

type dlEntry struct {
	at  time.Time
	gen uint64
	rec *jobRec
}

type dlWheel struct {
	mu      sync.Mutex
	heap    []dlEntry
	running bool
	wake    time.Time     // when the loop's timer fires
	kick    chan struct{} // cap 1: wakes the sleeper when an earlier entry arms
}

func newWheel() *dlWheel {
	return &dlWheel{heap: make([]dlEntry, 0, 1024), kick: make(chan struct{}, 1)}
}

// arm schedules rec's generation gen to expire at t. The wheel
// goroutine is started lazily; it sleeps at least until the first
// entry's time and exits once it wakes to an empty heap.
func (w *dlWheel) arm(rec *jobRec, gen uint64, at time.Time) {
	w.mu.Lock()
	rec.wheelIdx = len(w.heap)
	w.heap = append(w.heap, dlEntry{at: at, gen: gen, rec: rec})
	w.up(len(w.heap) - 1)
	start, earlier := !w.running, at.Before(w.wake)
	if start || earlier {
		w.running, w.wake = true, at
	}
	w.mu.Unlock()
	if start {
		go w.loop()
	} else if earlier {
		select {
		case w.kick <- struct{}{}:
		default:
		}
	}
}

// drop removes a finished job's entry if the wheel still holds it.
func (w *dlWheel) drop(rec *jobRec) {
	w.mu.Lock()
	if i := rec.wheelIdx; i >= 0 {
		w.remove(i)
	}
	w.mu.Unlock()
}

func (w *dlWheel) loop() {
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		w.mu.Lock()
		now := time.Now()
		if len(w.heap) > 0 && !w.heap[0].at.After(now) {
			e := w.heap[0]
			w.remove(0)
			w.mu.Unlock()
			e.rec.expire(e.gen)
			continue
		}
		if len(w.heap) > 0 {
			w.wake = w.heap[0].at
		} else if !w.wake.After(now) {
			w.running = false
			w.mu.Unlock()
			return
		}
		timer.Reset(w.wake.Sub(now))
		w.mu.Unlock()
		select {
		case <-timer.C:
		case <-w.kick:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
	}
}

// remove takes entry i off the heap. Caller holds w.mu.
func (w *dlWheel) remove(i int) {
	last := len(w.heap) - 1
	w.swap(i, last)
	w.heap[last].rec.wheelIdx = -1
	w.heap[last] = dlEntry{}
	w.heap = w.heap[:last]
	if i < last {
		w.down(i)
		w.up(i)
	}
}

func (w *dlWheel) swap(i, j int) {
	w.heap[i], w.heap[j] = w.heap[j], w.heap[i]
	w.heap[i].rec.wheelIdx, w.heap[j].rec.wheelIdx = i, j
}

func (w *dlWheel) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !w.heap[i].at.Before(w.heap[p].at) {
			return
		}
		w.swap(i, p)
		i = p
	}
}

func (w *dlWheel) down(i int) {
	n := len(w.heap)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && w.heap[l].at.Before(w.heap[min].at) {
			min = l
		}
		if r < n && w.heap[r].at.Before(w.heap[min].at) {
			min = r
		}
		if min == i {
			return
		}
		w.swap(i, min)
		i = min
	}
}

// ---------------------------------------------------------------------
// Manual response encoding: JobView-shaped JSON appended into the
// record's reusable buffer. encoding/json allocates per call; this
// path must not.

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c >= 0x20:
			buf = append(buf, c)
		case c == '\n':
			buf = append(buf, '\\', 'n')
		case c == '\t':
			buf = append(buf, '\\', 't')
		case c == '\r':
			buf = append(buf, '\\', 'r')
		default:
			buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
		}
	}
	return append(buf, '"')
}

// appendJobID appends the canonical "jNNNNNN" id (zero-padded to six
// digits, wider beyond a million jobs) as a JSON string.
func appendJobID(buf []byte, idn uint64) []byte {
	buf = append(buf, '"', 'j')
	var tmp [20]byte
	d := strconv.AppendUint(tmp[:0], idn, 10)
	for pad := 6 - len(d); pad > 0; pad-- {
		buf = append(buf, '0')
	}
	buf = append(buf, d...)
	return append(buf, '"')
}

// appendResult appends the workload result. Results that are nil or
// simple scalars encode without reflection; anything else falls back to
// encoding/json (an allocation, paid only by workloads that return
// structured results).
func appendResult(buf []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(buf, "null"...)
	case string:
		return appendJSONString(buf, x)
	case int:
		return strconv.AppendInt(buf, int64(x), 10)
	case int64:
		return strconv.AppendInt(buf, x, 10)
	case uint64:
		return strconv.AppendUint(buf, x, 10)
	case float64:
		return strconv.AppendFloat(buf, x, 'g', -1, 64)
	case bool:
		return strconv.AppendBool(buf, x)
	default:
		b, err := json.Marshal(v)
		if err != nil {
			return appendJSONString(buf, "unencodable result: "+err.Error())
		}
		return append(buf, b...)
	}
}

// appendResponse appends r's JobView JSON (same keys and omitempty
// behavior as the encoding/json representation) to buf.
func (r *jobRec) appendResponse(buf []byte) []byte {
	buf = append(buf, '{')
	buf = r.appendFields(buf)
	return append(buf, '}')
}

// appendFields appends the JobView key/value pairs without the
// enclosing braces, so batch results can prefix a per-item code.
func (r *jobRec) appendFields(buf []byte) []byte {
	r.mu.Lock()
	status, errStr, detail := r.status, r.errStr, r.detail
	started, finished, submitted := r.started, r.finished, r.submitted
	result := r.result
	r.mu.Unlock()

	buf = append(buf, `"id":`...)
	if r.idStr != "" {
		buf = appendJSONString(buf, r.idStr)
	} else {
		buf = appendJobID(buf, r.idn)
	}
	buf = append(buf, `,"workload":`...)
	buf = appendJSONString(buf, r.workload)
	buf = append(buf, `,"status":`...)
	buf = appendJSONString(buf, status)
	var qw float64
	switch {
	case !started.IsZero():
		qw = ms(started.Sub(submitted))
	case !finished.IsZero():
		qw = ms(finished.Sub(submitted))
	}
	buf = append(buf, `,"queue_wait_ms":`...)
	buf = strconv.AppendFloat(buf, qw, 'g', -1, 64)
	if !finished.IsZero() && !started.IsZero() {
		exec := finished.Sub(started)
		if v := ms(exec); v != 0 {
			buf = append(buf, `,"exec_ms":`...)
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		f1 := r.srv.rt.BaseArch().Groups[0].Freq
		if e := r.srv.rt.EnergyModel().Power(f1) * exec.Seconds(); e != 0 {
			buf = append(buf, `,"energy_j":`...)
			buf = strconv.AppendFloat(buf, e, 'g', -1, 64)
		}
	}
	if result != nil {
		buf = append(buf, `,"result":`...)
		buf = appendResult(buf, result)
	}
	if errStr != "" {
		buf = append(buf, `,"error":`...)
		buf = appendJSONString(buf, errStr)
	}
	if detail != "" {
		buf = append(buf, `,"detail":`...)
		buf = appendJSONString(buf, detail)
	}
	return buf
}

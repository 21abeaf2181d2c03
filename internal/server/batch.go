// POST /v1/jobs:batch — amortized admission.
//
// A batch carries N jobs in one request: one decode, one shed decision,
// one response write. Items are statically validated first (unknown
// workload, bad params — those cost no admission slot), then the batch
// takes whatever admission headroom exists in a single reserve call:
// all eligible items admitted if it fits, a partial prefix when the
// in-flight bound truncates it, or a whole-batch 429 + Retry-After when
// there is no headroom at all. Admitted items run concurrently on
// pooled records with per-item deadlines on the wheel; the response
// reports every item in request order with its own HTTP-equivalent
// code, so a client retries exactly the failed/shed suffix and never
// the whole batch (see internal/client's SubmitBatch).
package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"wats/internal/wire"
)

// maxBatchItems bounds one batch request; beyond it is a 400, not a
// shed — the client is misassembled, not unlucky.
const maxBatchItems = 1024

// batchRequest is the POST /v1/jobs:batch body.
type batchRequest struct {
	Jobs []submitRequest `json:"jobs"`
}

// batchItem is one slot of an in-progress batch: the resolved workload
// (static validation), and after runBatch either the finished record or
// a rejection code.
type batchItem struct {
	wl       *Workload
	params   Params
	deadline time.Duration
	code     int // non-zero: rejected before spawn (400/429/503)
	errMsg   string
	rec      *jobRec
}

// batchRun is the pooled per-request scratch: the item slots and the
// response buffer, both retained across batches.
type batchRun struct {
	items []batchItem
	buf   []byte
}

var batchPool = sync.Pool{New: func() any {
	return &batchRun{items: make([]batchItem, 0, 64), buf: make([]byte, 0, 4096)}
}}

func (s *Server) handleJobsBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req batchRequest
	if err := json.NewDecoder(wire.Bounded(w, r)).Decode(&req); err != nil {
		badBody(w, err)
		return
	}
	if len(req.Jobs) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch: need jobs[]")
		return
	}
	if len(req.Jobs) > maxBatchItems {
		httpError(w, http.StatusBadRequest, "batch of %d exceeds limit %d", len(req.Jobs), maxBatchItems)
		return
	}
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining: not accepting jobs")
		return
	}
	br := batchPool.Get().(*batchRun)
	defer func() {
		br.items = br.items[:0]
		batchPool.Put(br)
	}()
	for i := range req.Jobs {
		sub := &req.Jobs[i]
		it := batchItem{deadline: s.cfg.DefaultDeadline}
		if sub.DeadlineMS > 0 {
			it.deadline = time.Duration(sub.DeadlineMS) * time.Millisecond
		}
		switch wl, ok := s.cfg.Workloads[sub.Workload]; {
		case !ok:
			it.code, it.errMsg = http.StatusBadRequest, "unknown workload "+strconv.Quote(sub.Workload)
		case sub.Async:
			it.code, it.errMsg = http.StatusBadRequest, "async not supported in a batch"
		default:
			if err := sub.Params.Validate(); err != nil {
				it.code, it.errMsg = http.StatusBadRequest, "bad params: "+err.Error()
			} else {
				it.wl, it.params = &wl, sub.Params
			}
		}
		br.items = append(br.items, it)
	}
	admitted, valid := s.runBatch(br.items)
	if admitted == 0 && valid > 0 {
		// Nothing fit: the single whole-batch shed decision. runBatch
		// already counted one shed per eligible item.
		s.releaseBatch(br.items)
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds())))
		httpError(w, http.StatusTooManyRequests, "batch shed: no admission headroom for %d jobs", valid)
		return
	}
	if admitted < valid {
		// Partial shed: per-item 429s in the body, same backoff hint.
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds())))
	}
	br.buf = s.appendBatchResponse(br.buf[:0], br.items)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(br.buf)
	s.releaseBatch(br.items)
}

// runBatch is the batch admission core: one reserve call for every
// statically-valid item, spawn the admitted prefix, wait for all of
// them. Rejected items get their code set in place. Returns the
// admitted and eligible counts.
func (s *Server) runBatch(items []batchItem) (admitted, valid int) {
	for i := range items {
		if items[i].code == 0 {
			valid++
		}
	}
	admitted = s.reserve(valid)
	granted := admitted
	for i := range items {
		it := &items[i]
		if it.code != 0 {
			continue
		}
		if granted == 0 {
			it.code, it.errMsg = http.StatusTooManyRequests, "shed: no admission headroom"
			s.metrics.Shed()
			continue
		}
		granted--
		s.metrics.Submitted()
		r := s.newRec()
		if err := s.startJob(r, it.wl, it.params, it.deadline, modeSync); err != nil {
			// Runtime shut down: the job finalized as failed and no
			// release is coming — drop both references.
			r.unref()
			r.unref()
			it.code, it.errMsg = http.StatusServiceUnavailable, "runtime shut down"
			continue
		}
		it.rec = r
	}
	for i := range items {
		if r := items[i].rec; r != nil {
			<-r.done
		}
	}
	return admitted, valid
}

// releaseBatch drops the responder reference on every spawned item.
// Call only after the response is fully encoded: the records recycle
// here.
func (s *Server) releaseBatch(items []batchItem) {
	for i := range items {
		if r := items[i].rec; r != nil {
			r.unref()
			items[i].rec = nil
		}
	}
}

// appendBatchResponse encodes {"results":[...]} with one entry per item
// in request order: finished jobs as {"code":C,<JobView fields>},
// rejected ones as {"code":C,"error":...}.
func (s *Server) appendBatchResponse(buf []byte, items []batchItem) []byte {
	buf = append(buf, `{"results":[`...)
	for i := range items {
		if i > 0 {
			buf = append(buf, ',')
		}
		it := &items[i]
		buf = append(buf, `{"code":`...)
		if it.rec != nil {
			buf = strconv.AppendInt(buf, int64(httpStatusFor(it.rec.statusLocked())), 10)
			buf = append(buf, ',')
			buf = it.rec.appendFields(buf)
		} else {
			buf = strconv.AppendInt(buf, int64(it.code), 10)
			if it.errMsg != "" {
				buf = append(buf, `,"error":`...)
				buf = appendJSONString(buf, it.errMsg)
			}
		}
		buf = append(buf, '}')
	}
	return append(buf, ']', '}', '\n')
}

package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The program carries no request id yet, so the benchmark carries one
// itself: every job body ends in `"seed":<ten digits>}}`, the gate
// forwards bodies verbatim, and each wrapper below reads the ten digits
// back at that fixed place. tagOf(seed) is the first tag of a run; a
// job's id is its tag minus that.
const (
	tagDigits = 10
	tagTail   = tagDigits + 2 // the digits and the closing "}}"
	maxJobs   = 10_000_000    // ids per run that fit below the next seed's tags
	bodyMax   = 96            // longest job body the benchmark sends
)

func tagOf(seed uint64) int64 { return 1_000_000_000 + int64(seed%800)*maxJobs }

// putTag writes tag into the ten digits that end body.
func putTag(body []byte, tag int64) {
	for i := len(body) - 3; i >= len(body)-tagTail; i-- {
		body[i] = byte('0' + tag%10)
		tag /= 10
	}
}

// readTag is putTag's inverse; -1 when body does not end in a tag.
func readTag(body []byte) int64 {
	if len(body) < tagTail+1 || body[len(body)-1] != '}' || body[len(body)-tagTail-1] != ':' {
		return -1
	}
	var tag int64
	for _, c := range body[len(body)-tagTail : len(body)-2] {
		if c < '0' || c > '9' {
			return -1
		}
		tag = tag*10 + int64(c-'0')
	}
	return tag
}

// Span kinds, outermost first. A span's parent is the innermost span of
// an earlier kind recorded for the same job — for server.handler under a
// gate, the gate.backend_rtt span to the same node.
const (
	spSubmit       = iota // root: around client.SubmitJob, or stream submit to result
	spRoundTrip           // RoundTrip in the benchmark client's transport
	spGate                // middleware around gate.Handler()
	spBackend             // RoundTrip in the gate's per-backend transport
	spServer              // middleware around server.Handler()
	spStreamSubmit        // StreamClient.Submit+Flush, child of the root on the stream path
	spanKinds
)

var spanNames = [spanKinds]string{
	"client.submit", "client.roundtrip", "gate.handler", "gate.backend_rtt", "server.handler", "client.stream_submit",
}

// noNode marks spans that do not belong to one backend.
const noNode = 0xff

type span struct {
	job        int32
	kind, node uint8
	start, end int64 // ns since the run's epoch
}

// recorder keeps a traced run's spans in memory. Wrappers record only
// while on is set, so one run can measure an untraced reference phase
// and a traced phase through the same wrappers.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	base  int64    // tag of job 0
	nodes []string // backend names, indexed by span.node

	mu    sync.Mutex
	spans []span
	// srv holds the queue wait and execution time the server reported in
	// each traced job's response: the part of server.handler that is not
	// the handler's own work.
	srv []serverTimes
}

type serverTimes struct {
	job         int32
	queue, exec int64 // ns
}

func newRecorder(epoch time.Time, seed uint64) *recorder {
	return &recorder{epoch: epoch, base: tagOf(seed),
		spans: make([]span, 0, 1<<20), srv: make([]serverTimes, 0, 1<<18)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// setOn and isOn accept the nil recorder of an untraced run.
func (r *recorder) setOn(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

func (r *recorder) isOn() bool { return r != nil && r.on.Load() }

func (r *recorder) add(kind, node uint8, job, start, end int64) {
	if job < 0 || job >= maxJobs {
		return // not a benchmark job: a probe, a poll, or warm-up traffic before job 0
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{job: int32(job), kind: kind, node: node, start: start, end: end})
	r.mu.Unlock()
}

func (r *recorder) addServerTimes(job, queueNs, execNs int64) {
	r.mu.Lock()
	r.srv = append(r.srv, serverTimes{int32(job), queueNs, execNs})
	r.mu.Unlock()
}

func isJobPost(q *http.Request) bool {
	return q.Method == http.MethodPost && q.URL.Path == "/v1/jobs"
}

// tagBody remembers the bytes a handler reads from a request body, so
// the middleware can read the tag once the handler is done with it.
type tagBody struct {
	io.ReadCloser
	buf [bodyMax]byte
	n   int
}

func (t *tagBody) Read(p []byte) (int, error) {
	n, err := t.ReadCloser.Read(p)
	t.n += copy(t.buf[t.n:], p[:n])
	return n, err
}

// middleware records one span of kind around each job submission next
// serves.
func (r *recorder) middleware(kind, node uint8, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, q *http.Request) {
		if !r.on.Load() || !isJobPost(q) {
			next.ServeHTTP(w, q)
			return
		}
		tb := &tagBody{ReadCloser: q.Body}
		q.Body = tb
		start := r.now()
		next.ServeHTTP(w, q)
		r.add(kind, node, readTag(tb.buf[:tb.n])-r.base, start, r.now())
	})
}

// roundTripper records one span of kind around each job submission sent
// through next. The span ends when the response header has arrived; the
// few dozen bytes of body that follow are read in the caller's span.
type roundTripper struct {
	rec        *recorder
	kind, node uint8
	next       http.RoundTripper
}

func (t *roundTripper) RoundTrip(q *http.Request) (*http.Response, error) {
	if !t.rec.on.Load() || !isJobPost(q) || q.GetBody == nil {
		return t.next.RoundTrip(q)
	}
	tag := int64(-1)
	if body, err := q.GetBody(); err == nil {
		var buf [bodyMax]byte
		n, _ := io.ReadFull(body, buf[:])
		tag = readTag(buf[:n])
	}
	start := t.rec.now()
	resp, err := t.next.RoundTrip(q)
	t.rec.add(t.kind, t.node, tag-t.rec.base, start, t.rec.now())
	return resp, err
}

// parentOf returns the index in job (one job's spans) of span i's
// parent, or -1 for a root.
func parentOf(job []span, i int) int {
	s := job[i]
	if s.kind == spStreamSubmit {
		for j, p := range job {
			if p.kind == spSubmit {
				return j
			}
		}
		return -1
	}
	best := -1
	for j, p := range job {
		if p.kind >= s.kind || p.kind == spStreamSubmit {
			continue
		}
		if s.kind == spServer && p.kind == spBackend && p.node != s.node {
			continue
		}
		if best < 0 || p.kind > job[best].kind {
			best = j
		}
	}
	return best
}

// selfTimes returns, for each span of one job, its duration minus the
// part of it that its child spans cover (children may overlap: a hedged
// job has two gate.backend_rtt spans under one gate.handler).
func selfTimes(job []span) (self []int64, parents []int) {
	parents = make([]int, len(job))
	for i := range job {
		parents[i] = parentOf(job, i)
	}
	self = make([]int64, len(job))
	for i, s := range job {
		var kids []span
		for j, p := range parents {
			if p == i {
				kids = append(kids, job[j])
			}
		}
		sort.Slice(kids, func(a, b int) bool { return kids[a].start < kids[b].start })
		covered, upTo := int64(0), s.start
		for _, k := range kids {
			lo, hi := max(k.start, upTo), min(k.end, s.end)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self, parents
}

// byJob sorts the spans by job and calls visit once per job.
func (r *recorder) byJob(visit func(job []span)) {
	sort.Slice(r.spans, func(a, b int) bool {
		x, y := r.spans[a], r.spans[b]
		if x.job != y.job {
			return x.job < y.job
		}
		return x.start < y.start
	})
	for lo := 0; lo < len(r.spans); {
		hi := lo
		for hi < len(r.spans) && r.spans[hi].job == r.spans[lo].job {
			hi++
		}
		visit(r.spans[lo:hi])
		lo = hi
	}
}

// layerMetrics reports each layer's span duration and self time as the
// median over the traced jobs. A job cut off by the end of the traced
// phase lacks its root span and is skipped.
func (r *recorder) layerMetrics(ms metricSet) {
	var dur, self [spanKinds][]float64
	var serverSelf []float64
	reported := make(map[int32]serverTimes, len(r.srv))
	for _, t := range r.srv {
		reported[t.job] = t
	}
	r.byJob(func(job []span) {
		if job[0].kind != spSubmit {
			return
		}
		selfs, _ := selfTimes(job)
		servers, serverDur := 0, int64(0)
		for i, s := range job {
			dur[s.kind] = append(dur[s.kind], float64(s.end-s.start))
			self[s.kind] = append(self[s.kind], float64(selfs[i]))
			if s.kind == spServer {
				servers, serverDur = servers+1, s.end-s.start
			}
		}
		// A hedged job ran on two servers; its response reports one.
		if t, ok := reported[job[0].job]; ok && servers == 1 {
			serverSelf = append(serverSelf, float64(serverDur-t.queue-t.exec))
		}
	})
	put := func(name string, xs []float64) {
		if len(xs) > 0 {
			ms.put(name, median(xs), "ns", len(xs))
		}
	}
	if len(dur[spStreamSubmit]) == 0 {
		put("client.submit_self_ns", self[spSubmit])
	}
	put("client.stream_submit_ns", dur[spStreamSubmit])
	put("net.client_hop_ns", self[spRoundTrip])
	put("gate.handler_ns", dur[spGate])
	put("gate.self_ns", self[spGate])
	put("gate.backend_rtt_ns", dur[spBackend])
	put("net.backend_hop_ns", self[spBackend])
	put("server.handler_ns", dur[spServer])
	put("server.self_ns", serverSelf)
	ms.put("trace.spans", float64(len(r.spans)), "count", len(r.spans))
}

// spanFileJobs bounds the span file: a noop run traces several hundred
// thousand jobs, and the first few thousand show the shape of all.
const spanFileJobs = 20000

// writeSpans writes the spans of the first spanFileJobs traced jobs as
// NDJSON: name, node, start and end (ns since the run began), parent and
// job.
func (r *recorder) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	jobs := 0
	r.byJob(func(job []span) {
		if jobs++; jobs > spanFileJobs {
			return
		}
		_, parents := selfTimes(job)
		for i, s := range job {
			parent, node := "", ""
			if parents[i] >= 0 {
				parent = spanNames[job[parents[i]].kind]
			}
			if s.node != noNode {
				node = r.nodes[s.node]
			}
			fmt.Fprintf(w, `{"name":%q,"node":%q,"start":%d,"end":%d,"parent":%q,"job":%d}`+"\n",
				spanNames[s.kind], node, s.start, s.end, parent, s.job)
		}
	})
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

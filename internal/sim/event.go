package sim

// eventKind discriminates the engine's event types.
type eventKind int8

const (
	// evDispatch makes an idle core look for work.
	evDispatch eventKind = iota
	// evSegEnd fires when a core finishes its current task segment.
	evSegEnd
	// evHelper is the periodic helper-thread tick (cluster reorganization).
	evHelper
	// evSpeed applies a scheduled DVFS speed change to a core.
	evSpeed
	// evArrival injects a pre-registered open-loop task at its arrival
	// time (trace replay; the token indexes Engine.arrivals).
	evArrival
)

// event is one entry in the virtual-time event queue. Events at equal time
// are processed in insertion (seq) order, which keeps runs deterministic.
type event struct {
	at   float64
	seq  int64
	kind eventKind
	core int32
	// token validates evSegEnd events: a preemption or re-dispatch bumps
	// the core's run token, turning stale segment-end events into no-ops.
	token int64
}

// before reports whether a pops ahead of b. seq is unique per engine, so
// (at, seq) is a strict total order: every correct priority queue pops the
// same sequence, which is what keeps runs bit-reproducible whatever the
// queue's layout.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap ordered by (at, seq), typed so that push
// and pop move events within one slice and never box them. Both sifts
// carry the moving event in a local and shift the others into the hole,
// writing it once at its final slot.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
}

// pop removes and returns the earliest event; the heap must be non-empty.
func (h *eventHeap) pop() event {
	n := len(*h) - 1
	top, ev := (*h)[0], (*h)[n]
	*h = (*h)[:n] // self-slice: only the length is stored, no pointer write
	s := *h
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s[r].before(&s[child]) {
			child = r
		}
		if !s[child].before(&ev) {
			break
		}
		s[i] = s[child]
		i = child
	}
	if n > 0 {
		s[i] = ev
	}
	return top
}

// Package obs is the shared observability layer of the live runtime and
// the simulator: typed scheduler events collected in per-worker ring
// buffers, counters and log-scale histograms for the hot-path metrics the
// paper's argument rests on (steal traffic, per-class workloads, the
// helper's repartitions), a Chrome trace_event exporter whose output loads
// in about://tracing and Perfetto, and an HTTP debug mux serving
// Prometheus-text /metrics, expvar, pprof and a JSON scheduler snapshot.
//
// The layer is attached to a live runtime via runtime.Config.Obs and is
// deliberately pull-free on the hot path: every emission site in the
// runtime is guarded by a single nil-check on the tracer pointer, so the
// disabled path costs one predictable branch (see BenchmarkObsHook and
// the DESIGN.md "Observability" section for the measured overhead).
// Simulator traces recorded by internal/trace are converted with
// FromRecorder and can be merged with live streams in one Chrome trace.
package obs

import "fmt"

// EventKind is the type tag of one scheduler event.
type EventKind uint8

const (
	// EvSpawn is a task submission: a task of Class was pushed to
	// Worker's pool for Cluster (N holds the pool depth after the push).
	EvSpawn EventKind = iota
	// EvPop is a local pop: Worker took a task of Class from its own pool
	// for Cluster (the inbox counts as cluster -1).
	EvPop
	// EvStealTry is a failed steal sweep: Worker probed N victim pools of
	// Cluster without finding a task.
	EvStealTry
	// EvSteal is a successful steal: Worker took a task of Class from
	// Victim's pool for Cluster; Dur is the latency since the acquisition
	// walk began.
	EvSteal
	// EvSnatch is a preemption of Victim's running task by Worker
	// (simulator traces only: the live runtime cannot snatch).
	EvSnatch
	// EvComplete is a task completion on Worker: Class ran for Dur
	// nanoseconds of Eq.2-normalized (fastest-core) work.
	EvComplete
	// EvRepartition is one helper-thread rebuild of the class-to-cluster
	// map (Algorithm 1): Dur is the rebuild duration and Part the new
	// class → cluster assignment.
	EvRepartition
	// EvCancel is a dropped task: Worker acquired (or was spawning) a task
	// of Class whose job context was already done and discarded it without
	// running it.
	EvCancel
	// EvPanic is a recovered task panic: a task of Class panicked on
	// Worker; the runtime's isolation layer recovered it, poisoned the
	// owning job and kept the worker alive.
	EvPanic
	// EvStall is a watchdog detection: the task running on Worker has been
	// executing for Dur nanoseconds, past the configured stall threshold.
	// Emitted once per stalled task, not per watchdog tick.
	EvStall
	// EvResize is an elastic-runtime resize: the worker pool changed from
	// Victim (old count) to N (new count) workers; Dur is how long the
	// resize took (grow publication + victim drain).
	EvResize

	numEventKinds
)

// String names the kind for exports and debugging.
func (k EventKind) String() string {
	switch k {
	case EvSpawn:
		return "spawn"
	case EvPop:
		return "pop"
	case EvStealTry:
		return "steal-try"
	case EvSteal:
		return "steal"
	case EvSnatch:
		return "snatch"
	case EvComplete:
		return "complete"
	case EvRepartition:
		return "repartition"
	case EvCancel:
		return "cancel"
	case EvPanic:
		return "panic"
	case EvStall:
		return "stall"
	case EvResize:
		return "resize"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one recorded scheduler event. Field meaning varies slightly by
// Kind; see the EventKind constants. The zero Worker/Victim/Cluster values
// are valid indices, so "not applicable" is encoded as -1.
type Event struct {
	// TS is the event time in nanoseconds since the tracer's start (live
	// streams) or since virtual time zero (simulator streams).
	TS int64
	// Seq is the ring-buffer sequence number, a tiebreak for events with
	// equal timestamps.
	Seq uint64
	// Kind tags the event.
	Kind EventKind
	// Worker is the emitting worker, or -1 for external/helper events.
	Worker int32
	// Cluster is the task cluster involved, or -1 when not applicable.
	Cluster int32
	// Victim is the steal/snatch victim worker, or -1.
	Victim int32
	// N is a small count: pool depth after a spawn push, probe count of a
	// failed steal sweep.
	N int32
	// Dur is a duration in nanoseconds: normalized work for completes,
	// steal latency for steals, rebuild time for repartitions.
	Dur int64
	// Class is the task class, when the event concerns a task.
	Class string
	// Part is the new class → cluster map, for repartition events only.
	Part map[string]int
}

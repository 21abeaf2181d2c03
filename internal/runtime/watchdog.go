package runtime

import "time"

// The worker watchdog detects stalled tasks: bodies that neither return
// nor hit a cancellation point for longer than Config.StallThreshold —
// an infinite loop, a forgotten channel receive, a deadlocked lock. The
// mechanism rides on the per-worker infrastructure of the lock-free hot
// path (see park.go and DESIGN.md §7): each worker publishes a heartbeat
// — one padded atomic store of its current task's start time around each
// execute, owner-written, watchdog-read — so detection costs the workers
// two plain atomic stores per task and nothing at all when disabled.
//
// The runtime cannot preempt a stalled goroutine (the same limitation
// that rules out snatching, see the package comment), so the watchdog
// reports instead of kills: an EvStall event and wats_stalls_total per
// stalled task, and StalledWorkers() for readiness endpoints — a wedged
// instance reports itself unready and the load balancer rotates it out,
// which is the containment a non-preemptive runtime can honestly offer.

// watchdog periodically scans the heartbeats and reports each stalled
// task once (a task stalled across many ticks is one detection; a new
// task on the same worker re-arms it). It reads the worker set through
// the RCU table each tick, so hot-added workers are covered from their
// first task and retiring workers until they exit; the reported map is
// keyed by slot id (a reused slot starts clean — its previous owner's
// heartbeat was zeroed when that worker went idle to exit). Started only
// when Config.StallThreshold > 0; exits on Shutdown.
func (rt *Runtime) watchdog() {
	defer rt.wg.Done()
	period := rt.cfg.StallThreshold / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	// reported[id] is the heartbeat value (task identity: start+1) already
	// flagged on the worker in slot id, so one stalled task emits one event.
	reported := make(map[int]int64)
	for {
		select {
		case <-tick.C:
			if rt.shutdown.Load() {
				return
			}
			now := int64(time.Since(rt.base))
			for _, w := range rt.table.Load().all {
				s := w.hb.v.Load()
				if s == 0 {
					delete(reported, w.id)
					continue
				}
				age := now - (s - 1)
				if age < int64(rt.cfg.StallThreshold) || reported[w.id] == s {
					continue
				}
				reported[w.id] = s
				if rt.obs != nil {
					rt.obs.Stall(w.id, time.Duration(age))
				}
			}
		case <-rt.watchdogDone:
			return
		}
	}
}

// StalledWorkers returns the worker ids whose current task has been
// running longer than Config.StallThreshold — a racy point-read over the
// heartbeats, cheap enough for per-request readiness checks. Nil when
// the watchdog is disabled. A worker leaves the list the moment its
// stalled task finally completes (or the job context unblocks it).
func (rt *Runtime) StalledWorkers() []int {
	if !rt.hbOn {
		return nil
	}
	now := int64(time.Since(rt.base))
	var out []int
	for _, w := range rt.table.Load().all {
		if s := w.hb.v.Load(); s != 0 && now-(s-1) >= int64(rt.cfg.StallThreshold) {
			out = append(out, w.id)
		}
	}
	return out
}

// StallThreshold returns the configured watchdog threshold (0 =
// watchdog disabled).
func (rt *Runtime) StallThreshold() time.Duration { return rt.cfg.StallThreshold }

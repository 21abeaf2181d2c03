package runtime

import (
	"fmt"
	"math"
	"time"

	"wats/internal/counters"
	"wats/internal/sched"
)

// Online resizing: the worker set is malleable. Resize publishes a new
// worker table RCU-style, so the hot path never locks — workers, spawners
// and wakers read whichever table version they loaded and every version
// is safe:
//
//   - A joining worker is published (fresh deques, a recorder over a fresh
//     or revived history shard) before its goroutine starts, so a spawner
//     that can see its pools can also wake it.
//   - A retiring worker is first removed from the active set (no new
//     steals target it, no wakes are routed to it) but stays in the
//     wake-all set; its retire flag is checked at the top of the worker
//     loop, so its current task — and any Group.Wait it is helping in —
//     always finishes first. It then drains its own pools back into the
//     shared inbox (nobody else pushes to them: external spawns always go
//     through the inbox and only the owner pushes child tasks), flushes
//     its completion batch, wakes everyone (it may have consumed a wake
//     meant for real work while parked) and exits.
//   - Only after the victim's goroutine is provably gone are its counters
//     folded into the retired aggregate and its slot id freed for reuse —
//     the old and new owner of a history shard never overlap, preserving
//     the shards' single-writer invariant. Shard totals are monotone, so
//     the fold loses nothing: every completion the victim recorded stays
//     in the registry.
//
// Completion accounting across a resize is exact: tasks move between
// queues (victim pools → inbox) without touching the outstanding counter,
// and the victim flushes its batch before closing its gone channel.

// Resize changes the live worker set to the given per-c-group counts
// (fastest group first, every group ≥ 1 worker — an empty group would
// strand its task cluster under WATS-NP). Grows and shrinks may mix in
// one call; grows take effect immediately, then Resize blocks until every
// victim has exited (bounded by the longest task running on a victim).
// Safe for concurrent use; calls serialize. Returns ErrShutdown after
// Shutdown has begun.
func (rt *Runtime) Resize(counts []int) error {
	rt.resizeMu.Lock()
	defer rt.resizeMu.Unlock()
	if rt.shutdown.Load() {
		return ErrShutdown
	}
	arch := rt.arch.Load()
	next, err := arch.Resize(counts)
	if err != nil {
		return err
	}
	tbl := rt.table.Load()
	cur := make([]int, arch.K())
	for _, w := range tbl.ws {
		cur[w.grp]++
	}
	same := true
	for g := range counts {
		if cur[g] != counts[g] {
			same = false
			break
		}
	}
	if same {
		return nil
	}
	t0 := time.Now()
	oldTotal := len(tbl.ws)

	ws := append([]*worker(nil), tbl.ws...)
	var added, victims []*worker
	for g := range counts {
		for d := counts[g] - cur[g]; d > 0; d-- {
			w := rt.newWorker(rt.allocID(), g)
			added = append(added, w)
			ws = append(ws, w)
		}
		for d := counts[g] - cur[g]; d < 0; d++ {
			// Retire the youngest (highest-id) worker of the group: ids
			// then stay dense-ish and the free list small.
			vi := -1
			for i, w := range ws {
				if w.grp == g && !w.retire.Load() && (vi < 0 || w.id > ws[vi].id) {
					vi = i
				}
			}
			victims = append(victims, ws[vi])
			ws = append(ws[:vi], ws[vi+1:]...)
		}
	}
	sortWorkers(ws)
	all := append(append([]*worker(nil), tbl.all...), added...)
	sortWorkers(all)

	// Publish shape and table: from here on new workers are steal victims
	// and wake targets, victims are neither (but stay in the wake-all set).
	rt.arch.Store(next)
	rt.table.Store(makeTable(ws, all, rt.k))
	for _, w := range added {
		rt.startWorker(w)
	}
	for _, v := range victims {
		v.retire.Store(true)
	}
	for _, v := range victims {
		rt.tryWake(v)
	}
	for _, v := range victims {
		<-v.gone
	}
	if len(victims) > 0 {
		gone := make(map[*worker]bool, len(victims))
		for _, v := range victims {
			rt.foldRetired(v)
			rt.freeIDs = append(rt.freeIDs, v.id)
			gone[v] = true
		}
		// Fresh slice: the published table still references all's backing
		// array and concurrent readers are iterating it.
		alive := make([]*worker, 0, len(all)-len(victims))
		for _, w := range all {
			if !gone[w] {
				alive = append(alive, w)
			}
		}
		rt.table.Store(makeTable(ws, alive, rt.k))
	}
	// Re-score the partition for the new per-group capacities (the K/Ni
	// trigger of Algorithm 1, as opposed to the class-history trigger).
	if rs, ok := rt.strat.(sched.Reshaper); ok {
		if err := rs.Reshape(next); err != nil {
			// Unreachable by construction (same K and speeds), but a
			// strategy with stricter rules deserves a visible error.
			return fmt.Errorf("runtime: resize applied but strategy reshape failed: %w", err)
		}
		if rt.strat.Reorganizes() {
			rt.strat.Reorganize()
		}
	}
	if rt.obs != nil {
		rt.obs.Resize(oldTotal, len(ws), time.Since(t0))
	}
	return nil
}

// allocID hands out a worker slot id, preferring retired slots so history
// shards and obs rings are reused instead of growing without bound.
// Caller holds resizeMu.
func (rt *Runtime) allocID() int {
	if n := len(rt.freeIDs); n > 0 {
		// Lowest free id first, for stable, dense numbering.
		best := 0
		for i := 1; i < n; i++ {
			if rt.freeIDs[i] < rt.freeIDs[best] {
				best = i
			}
		}
		id := rt.freeIDs[best]
		rt.freeIDs[best] = rt.freeIDs[n-1]
		rt.freeIDs = rt.freeIDs[:n-1]
		return id
	}
	id := rt.nextID
	rt.nextID++
	return id
}

// retireDrain is the worker-side half of retirement, run at the top of
// the worker loop once the retire flag is observed: move every task still
// in the worker's own pools to the shared inbox (each move decrements the
// cluster counter the push incremented — the task itself stays
// outstanding and will be executed by a surviving worker), flush the
// completion batch, and wake every parked worker — both because the
// drained tasks are now in the inbox and because a spawner working from a
// stale table may have aimed a wake at this worker that must not die with
// it.
func (rt *Runtime) retireDrain(w *worker) {
	for cl, p := range w.pools {
		for {
			t, ok := p.PopBottom()
			if !ok {
				break
			}
			rt.clusterWork[cl].v.Add(-1)
			rt.inbox.push(t)
		}
	}
	w.compl.timeValid = false
	rt.flush(w)
	rt.wakeAll()
}

// foldRetired folds an exited worker's counters into the retired
// aggregate. Caller holds resizeMu and has observed the worker's gone
// channel closed, so every counter is final.
func (rt *Runtime) foldRetired(w *worker) {
	rt.retired.workers.Add(1)
	rt.retired.tasksRun.Add(w.tasksRun.Load())
	rt.retired.steals.Add(w.steals.Load())
	rt.retired.stealAttempts.Add(w.stealAttempts.Load())
	rt.retired.cancelled.Add(w.cancelled.Load())
	rt.retired.panics.Add(w.panics.Load())
	busy := w.busy.Load()
	rt.retired.busy.Add(busy)
	j := math.Float64frombits(rt.retired.joulesBits.Load())
	j += rt.energy.Power(w.freq) * float64(busy) / 1e9
	rt.retired.joulesBits.Store(math.Float64bits(j))
}

// Workers returns the current number of active workers (retiring workers
// excluded).
func (rt *Runtime) Workers() int { return len(rt.table.Load().ws) }

// Shape returns the active per-c-group worker counts, fastest group
// first — the value Resize would be a no-op for.
func (rt *Runtime) Shape() []int {
	arch := rt.arch.Load()
	counts := make([]int, arch.K())
	for _, w := range rt.table.Load().ws {
		counts[w.grp]++
	}
	return counts
}

// RetiredStats returns the folded counters of all retired workers as one
// aggregate row (Worker = -1, Group = -1). sum(Stats()) + RetiredStats()
// is the exact all-time total after quiescence.
func (rt *Runtime) RetiredStats() WorkerStats {
	return WorkerStats{
		Worker:        -1,
		Group:         -1,
		TasksRun:      rt.retired.tasksRun.Load(),
		Steals:        rt.retired.steals.Load(),
		StealAttempts: rt.retired.stealAttempts.Load(),
		Cancelled:     rt.retired.cancelled.Load(),
		Panics:        rt.retired.panics.Load(),
		BusyNanos:     rt.retired.busy.Load(),
		EnergyJoules:  math.Float64frombits(rt.retired.joulesBits.Load()),
	}
}

// RetiredWorkers returns how many workers have been retired over the
// runtime's lifetime.
func (rt *Runtime) RetiredWorkers() int { return int(rt.retired.workers.Load()) }

// EnergyJoules returns the modeled energy consumed so far across live and
// retired workers: per worker, Power(its c-group frequency) × busy-seconds
// under the DVFS model P = k·f³ + static (§IV-E). Busy time includes the
// speed-emulation stalls — the emulated slow core is "powered" for the
// whole emulated duration, matching what a real slow core would burn. A
// model estimate, not a measurement; the scale controller uses it as the
// cost side of the latency-vs-energy trade.
func (rt *Runtime) EnergyJoules() float64 {
	j := math.Float64frombits(rt.retired.joulesBits.Load())
	for _, w := range rt.table.Load().all {
		j += rt.energy.Power(w.freq) * float64(w.busy.Load()) / 1e9
	}
	return j
}

// EnergyModel returns the DVFS model energy accounting runs on.
func (rt *Runtime) EnergyModel() counters.EnergyModel { return rt.energy }

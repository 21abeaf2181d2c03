package runtime

import "wats/internal/task"

// Snapshot is a point-in-time view of the scheduler's observable state:
// the learned task classes TC(f, n, w), the current class → cluster
// partition and how often it was rebuilt, the per-c-group preference
// tables the acquisition walk follows, the live worker shape, deque
// depths and the per-worker counters, as the debug server serves it at
// /debug/wats. Depths and counters are racy point-reads while workers
// run; everything else is a consistent copy. The worker rows come from
// one RCU table load, so a snapshot taken mid-resize sees either the old
// or the new worker set, never a half-updated one. Classes are the merged view: taking a
// snapshot folds any per-worker shard observations not yet consumed by
// the helper into the canonical class table (the registry does this
// internally; no scheduler lock is involved).
type Snapshot struct {
	Policy  string `json:"policy"`
	Arch    string `json:"arch"`
	Workers int    `json:"workers"`
	CGroups int    `json:"cgroups"`
	// Shape is the active per-c-group worker count, fastest group first
	// (the live value Resize manipulates).
	Shape []int `json:"shape"`
	// RetiredWorkers counts workers retired by resizes so far.
	RetiredWorkers int `json:"retired_workers"`
	// Classes are the learned task-class records, sorted by descending
	// average workload (the order Algorithm 1 consumes).
	Classes []task.Class `json:"classes"`
	// Partition is the current class → cluster assignment of the
	// history-based allocator (empty until the first reorganization).
	Partition map[string]int `json:"partition"`
	// Reorganizations counts Algorithm 1 rebuilds so far.
	Reorganizations int `json:"reorganizations"`
	// PreferenceTables[g] is the cluster walk an idle worker of c-group g
	// performs (Algorithm 3's "rob the weaker first" lists for WATS).
	PreferenceTables [][]int `json:"preference_tables"`
	// DequeDepths[i][c] is the pool depth for cluster c of the worker in
	// row i of Stats (rows align; the worker's id is Stats[i].Worker).
	DequeDepths [][]int `json:"deque_depths"`
	// InboxDepth is the external-spawn / central-queue depth.
	InboxDepth int `json:"inbox_depth"`
	// Outstanding is the number of spawned-but-uncompleted tasks.
	Outstanding int64 `json:"outstanding"`
	// EnergyJoules is the modeled energy consumed so far (live + retired
	// workers; see Runtime.EnergyJoules).
	EnergyJoules float64 `json:"energy_joules"`
	// Stats are the per-worker counters (see WorkerStats), retiring
	// workers included (flagged).
	Stats []WorkerStats `json:"stats"`
}

// Snapshot captures the current scheduler state. It is safe to call at
// any time, including while workers run or a resize is in flight.
func (rt *Runtime) Snapshot() Snapshot {
	arch := rt.arch.Load()
	tbl := rt.table.Load()
	s := Snapshot{
		Policy:          string(rt.strat.Kind()),
		Arch:            arch.Name,
		Workers:         len(tbl.ws),
		CGroups:         arch.K(),
		Shape:           make([]int, arch.K()),
		RetiredWorkers:  rt.RetiredWorkers(),
		Classes:         rt.Registry().Snapshot(),
		Partition:       rt.strat.Allocator().Map().Snapshot(),
		Reorganizations: rt.strat.Allocator().Reorganizations(),
		InboxDepth:      rt.inbox.size(),
		Outstanding:     rt.outstanding.Load(),
		EnergyJoules:    rt.EnergyJoules(),
	}
	for _, w := range tbl.ws {
		s.Shape[w.grp]++
	}
	for g := 0; g < arch.K(); g++ {
		order := rt.strat.AcquireOrder(g)
		s.PreferenceTables = append(s.PreferenceTables, append([]int(nil), order...))
	}
	active := make(map[*worker]bool, len(tbl.ws))
	for _, w := range tbl.ws {
		active[w] = true
	}
	for _, w := range tbl.all {
		s.Stats = append(s.Stats, rt.statsOf(w, !active[w]))
		depths := make([]int, len(w.pools))
		for c, p := range w.pools {
			depths[c] = p.Len()
		}
		s.DequeDepths = append(s.DequeDepths, depths)
	}
	return s
}

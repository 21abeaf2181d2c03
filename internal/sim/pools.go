package sim

import (
	"wats/internal/deque"
	"wats/internal/task"
)

// PoolSet is the distributed task-pool fabric shared by all policies: one
// deque per (core, cluster) pair, as in Fig. 5 of the paper. Policies with
// a single logical pool per core (Cilk, PFT, RTS) use nClusters=1.
//
// All mutation goes through PoolSet so that the engine can maintain the
// child-first inline-measurement stacks (NoteDequeued) and policies can
// cheaply find steal victims via per-cluster occupancy counts.
type PoolSet struct {
	e        *Engine
	nCores   int
	nCluster int
	pools    []*deque.Deque[*task.Task] // index: core*nCluster + cluster
	// occupancy[cluster] is the number of cores whose pool for that
	// cluster is non-empty, for O(1) "are there any Cj tasks?" checks.
	occupancy []int
	// victims is StealRandom's candidate buffer, sized for every core
	// (the event loop is serial, so one buffer serves every thief).
	victims []int
}

// NewPoolSet builds the (cores × clusters) deque matrix.
func NewPoolSet(e *Engine, nClusters int) *PoolSet {
	n := len(e.Cores())
	p := &PoolSet{e: e, nCores: n, nCluster: nClusters, occupancy: make([]int, nClusters), victims: make([]int, 0, n)}
	p.pools = make([]*deque.Deque[*task.Task], n*nClusters)
	for i := range p.pools {
		p.pools[i] = deque.New[*task.Task]()
	}
	return p
}

func (p *PoolSet) at(core, cluster int) *deque.Deque[*task.Task] {
	return p.pools[core*p.nCluster+cluster]
}

// Len returns the number of tasks in core's pool for cluster.
func (p *PoolSet) Len(core, cluster int) int { return p.at(core, cluster).Len() }

// ClusterEmpty reports whether every core's pool for the cluster is empty.
func (p *PoolSet) ClusterEmpty(cluster int) bool { return p.occupancy[cluster] == 0 }

// Push appends t at the bottom of core's pool for cluster.
func (p *PoolSet) Push(core, cluster int, t *task.Task) {
	d := p.at(core, cluster)
	if d.Empty() {
		p.occupancy[cluster]++
	}
	d.PushBottom(t)
}

// PopBottom removes the newest task from core's own pool for cluster
// (owner end, LIFO). Returns nil if empty.
func (p *PoolSet) PopBottom(core, cluster int) *task.Task {
	d := p.at(core, cluster)
	t, ok := d.PopBottom()
	if !ok {
		return nil
	}
	if d.Empty() {
		p.occupancy[cluster]--
	}
	p.e.NoteDequeued(p.e.Cores()[core], t)
	return t
}

// StealTop removes the oldest task from victim's pool for cluster (thief
// end, FIFO). Returns nil if empty.
func (p *PoolSet) StealTop(victim, cluster int) *task.Task {
	d := p.at(victim, cluster)
	t, ok := d.PopTop()
	if !ok {
		return nil
	}
	if d.Empty() {
		p.occupancy[cluster]--
	}
	p.e.NoteDequeued(p.e.Cores()[victim], t)
	return t
}

// StealRandom steals from a uniformly random core (other than thief) whose
// pool for cluster is non-empty, per the traditional task-stealing policy.
// Returns nil if every other core's pool for the cluster is empty.
func (p *PoolSet) StealRandom(thief *Core, cluster int) *task.Task {
	if p.occupancy[cluster] == 0 {
		return nil
	}
	// Collect non-empty victims; the serial event loop makes this exact.
	victims := p.victims[:0]
	for c := 0; c < p.nCores; c++ {
		if c != thief.ID && !p.at(c, cluster).Empty() {
			victims = append(victims, c)
		}
	}
	if len(victims) == 0 {
		return nil
	}
	v := victims[thief.Rng.Intn(len(victims))]
	t := p.StealTop(v, cluster)
	if t != nil && p.e.Cfg.Tracer != nil {
		p.e.Cfg.Tracer.Steal(thief.ID, v, cluster, t.ID, p.e.Now())
	}
	return t
}

// TotalQueued returns the number of queued tasks across all pools.
func (p *PoolSet) TotalQueued() int {
	n := 0
	for _, d := range p.pools {
		n += d.Len()
	}
	return n
}

package history

import (
	"sort"
	"sync"
	"sync/atomic"

	"wats/internal/amc"
	"wats/internal/task"
)

// ClusterMap is the product of the history-based allocation: a mapping
// from task-class names to task-cluster indices (0 = the cluster of the
// fastest c-group). Task clusters and c-groups are in one-to-one
// correspondence (§III-A).
//
// ClusterMap values are immutable once built; the Allocator swaps in a new
// map on each reorganization, so readers never need a lock.
type ClusterMap struct {
	cluster map[string]int
	k       int
}

// ClusterOf returns the task cluster that class f is allocated to. Unknown
// classes go to cluster 0, the fastest c-group, "because we try to
// complete γ and collect the information of f's task class for future use
// as soon as possible" (§III-A).
func (m *ClusterMap) ClusterOf(f string) int {
	if m == nil {
		return 0
	}
	if c, ok := m.cluster[f]; ok {
		return c
	}
	return 0
}

// Known reports whether class f has an explicit allocation.
func (m *ClusterMap) Known(f string) bool {
	if m == nil {
		return false
	}
	_, ok := m.cluster[f]
	return ok
}

// K returns the number of clusters.
func (m *ClusterMap) K() int { return m.k }

// Snapshot returns a copy of the full class → cluster assignment (empty,
// never nil, for a nil or unbuilt map). Introspection surfaces — the live
// runtime's Snapshot, repartition trace events — render it directly.
func (m *ClusterMap) Snapshot() map[string]int {
	out := map[string]int{}
	if m == nil {
		return out
	}
	for f, c := range m.cluster {
		out[f] = c
	}
	return out
}

// Classes returns the class names allocated to cluster c, sorted.
func (m *ClusterMap) Classes(c int) []string {
	var out []string
	for f, ci := range m.cluster {
		if ci == c {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

// builder holds the intermediate buffers of one §III-A pipeline run. The
// Allocator keeps one under reorgMu and reuses it every helper tick; only
// the published ClusterMap escapes a build, never a buffer.
type builder struct {
	classes []task.Class
	weights []float64
	cuts    []int
	assign  []int
}

// build is the one snapshot → weights → partition → assign → map
// pipeline. When the resulting assignment equals prev's (same classes,
// same clusters, same k) it returns prev itself instead of an equal copy:
// published maps are immutable, so re-publishing one is free and readers
// cannot tell the difference.
func (b *builder) build(reg *task.Registry, arch *amc.Arch, rule cutRule, prev *ClusterMap) *ClusterMap {
	// The snapshot merges pending shard observations into the canonical
	// class table — the fold-on-repartition step of the helper thread.
	b.classes = reg.AppendSnapshot(b.classes[:0]) // sorted by AvgWork descending
	b.weights = b.weights[:0]
	for _, c := range b.classes {
		b.weights = append(b.weights, c.TotalWork())
	}
	b.cuts = rule(b.cuts, b.weights, arch)
	b.assign = assignmentInto(b.assign, len(b.classes), b.cuts)
	if prev.assigns(b.classes, b.assign, arch.K()) {
		return prev
	}
	m := &ClusterMap{cluster: make(map[string]int, len(b.classes)), k: arch.K()}
	for i, c := range b.classes {
		m.cluster[c.Name] = b.assign[i]
	}
	return m
}

// assigns reports whether m is exactly the mapping classes[i] → assign[i]
// over k clusters.
func (m *ClusterMap) assigns(classes []task.Class, assign []int, k int) bool {
	if m == nil || m.k != k || len(m.cluster) != len(classes) {
		return false
	}
	for i, c := range classes {
		if g, ok := m.cluster[c.Name]; !ok || g != assign[i] {
			return false
		}
	}
	return true
}

// Allocator ties a class Registry to a periodically rebuilt ClusterMap,
// playing the role of the paper's helper thread state. It is safe for
// concurrent use; the spawn-path read (Map/ClusterOf) is a single atomic
// load — ClusterMap values are immutable once built, so the helper
// publishes each rebuild RCU-style through an atomic pointer swap and
// readers never take a lock.
type Allocator struct {
	reg *task.Registry

	// arch is the architecture partitioned for. It is swappable: an online
	// resize publishes a new shape through SetArch and the next Reorganize
	// re-scores the partition against it (same RCU discipline as the
	// cluster map itself).
	arch atomic.Pointer[amc.Arch]

	// current is the published cluster map (never nil).
	current atomic.Pointer[ClusterMap]

	// reorgMu serializes rebuilds (cold path: the helper thread, plus the
	// reorganize-per-completion ablation); builtAt, dirty, partition and
	// the build buffers are guarded by it.
	reorgMu   sync.Mutex
	builtAt   uint64 // registry epoch when current was built
	dirty     bool   // arch changed since current was built
	reorgs    atomic.Int64
	partition cutRule
	scratch   builder
}

// NewAllocator returns an Allocator over the given registry and
// architecture with an empty initial cluster map (every class unknown,
// hence routed to the fastest c-group).
//
// The default cut rule is PartitionAnchored, which implements the paper's
// stated objective ("keep max(|Σw/cap − TL|) as small as possible",
// §II-C) without the literal pseudocode's under-fill cascade; see the
// Partition and PartitionAnchored doc comments and DESIGN.md for the
// distinction, and UseLiteralPartition for the verbatim rule.
func NewAllocator(reg *task.Registry, arch *amc.Arch) *Allocator {
	a := &Allocator{
		reg:       reg,
		partition: anchoredCuts,
	}
	a.arch.Store(arch)
	a.current.Store(&ClusterMap{cluster: map[string]int{}, k: arch.K()})
	return a
}

// UseLiteralPartition switches the allocator to the verbatim Algorithm 1
// greedy (each group cut at ≤ its share; all under-fill accumulates on the
// slowest group). Used by the partition-rule ablation; call before the run.
func (a *Allocator) UseLiteralPartition() {
	a.reorgMu.Lock()
	defer a.reorgMu.Unlock()
	a.partition = literalCuts
}

// Registry returns the underlying class registry.
func (a *Allocator) Registry() *task.Registry { return a.reg }

// Arch returns the architecture the allocator partitions for.
func (a *Allocator) Arch() *amc.Arch { return a.arch.Load() }

// SetArch publishes a new architecture shape and marks the cluster map
// stale, so the next Reorganize re-scores the partition against the new
// per-group capacities even if no class statistics changed (the K/Ni
// trigger of an online resize, as opposed to the class-history trigger).
func (a *Allocator) SetArch(arch *amc.Arch) {
	a.reorgMu.Lock()
	defer a.reorgMu.Unlock()
	a.arch.Store(arch)
	a.dirty = true
}

// Map returns the current cluster map (never nil). It is the spawn-path
// read: one atomic load, no lock.
func (a *Allocator) Map() *ClusterMap {
	return a.current.Load()
}

// ClusterOf is shorthand for Map().ClusterOf(f).
func (a *Allocator) ClusterOf(f string) int { return a.Map().ClusterOf(f) }

// Reorganize rebuilds the cluster map from current statistics if the
// registry changed since the last build. It reports whether a rebuild
// happened. The simulator calls it from helper-thread tick events; the
// live runtime calls it from a real helper goroutine.
func (a *Allocator) Reorganize() bool {
	a.reorgMu.Lock()
	defer a.reorgMu.Unlock()
	epoch := a.reg.Epoch()
	if epoch == a.builtAt && !a.dirty {
		return false
	}
	// An unchanged assignment re-publishes the same immutable map; it
	// still counts as a rebuild, because the statistics it was scored
	// against did change.
	a.current.Store(a.scratch.build(a.reg, a.arch.Load(), a.partition, a.current.Load()))
	a.builtAt = epoch
	a.dirty = false
	a.reorgs.Add(1)
	return true
}

// Reorganizations returns how many times the cluster map was rebuilt.
func (a *Allocator) Reorganizations() int {
	return int(a.reorgs.Load())
}

// PreferenceList returns the preference list of a core in c-group i out of
// k c-groups, following the "rob the weaker first" principle of Fig. 4:
//
//	{Ci, Ci+1, ..., Ck, Ci-1, Ci-2, ..., C1}
//
// (0-based here: {i, i+1, ..., k-1, i-1, ..., 0}).
func PreferenceList(i, k int) []int {
	out := make([]int, 0, k)
	for j := i; j < k; j++ {
		out = append(out, j)
	}
	for j := i - 1; j >= 0; j-- {
		out = append(out, j)
	}
	return out
}

// PreferenceTable returns the preference lists of every c-group, as in
// Table I of the paper.
func PreferenceTable(k int) [][]int {
	out := make([][]int, k)
	for i := 0; i < k; i++ {
		out[i] = PreferenceList(i, k)
	}
	return out
}

package history

import (
	"reflect"
	"sync"
	"testing"

	"wats/internal/amc"
	"wats/internal/task"
)

func TestPreferenceListFig4(t *testing.T) {
	// Fig. 4: the preference list of a core in c-group Ci (1-based) is
	// {Ci, Ci+1, ..., Ck, Ci-1, ..., C1}. Zero-based here.
	cases := []struct {
		i, k int
		want []int
	}{
		{0, 4, []int{0, 1, 2, 3}},
		{1, 4, []int{1, 2, 3, 0}},
		{2, 4, []int{2, 3, 1, 0}},
		{3, 4, []int{3, 2, 1, 0}},
		{0, 1, []int{0}},
	}
	for _, c := range cases {
		got := PreferenceList(c.i, c.k)
		if len(got) != len(c.want) {
			t.Fatalf("PreferenceList(%d,%d)=%v want %v", c.i, c.k, got, c.want)
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Fatalf("PreferenceList(%d,%d)=%v want %v", c.i, c.k, got, c.want)
			}
		}
	}
}

func TestPreferenceTableTable1(t *testing.T) {
	// Table I of the paper (k=3): C1:{C1,C2,C3}, C2:{C2,C3,C1},
	// C3:{C3,C2,C1}.
	tbl := PreferenceTable(3)
	want := [][]int{{0, 1, 2}, {1, 2, 0}, {2, 1, 0}}
	for i := range want {
		for j := range want[i] {
			if tbl[i][j] != want[i][j] {
				t.Fatalf("PreferenceTable(3)=%v want %v", tbl, want)
			}
		}
	}
}

// freshMap runs the §III-A pipeline once on a new allocator over reg.
func freshMap(reg *task.Registry, arch *amc.Arch) *ClusterMap {
	a := NewAllocator(reg, arch)
	a.Reorganize()
	return a.Map()
}

func TestClusterMapUnknownClassGoesToFastest(t *testing.T) {
	var m *ClusterMap
	if m.ClusterOf("anything") != 0 {
		t.Fatal("nil map should route to cluster 0")
	}
	reg := task.NewRegistry()
	m2 := freshMap(reg, amc.AMC2)
	if m2.ClusterOf("never-seen") != 0 {
		t.Fatal("unknown class should route to cluster 0 (fastest c-group)")
	}
	if m2.Known("never-seen") {
		t.Fatal("unknown class reported as known")
	}
}

func TestBuildClusterMapOrdering(t *testing.T) {
	reg := task.NewRegistry()
	// Heavy class (few huge tasks), light class (many tiny tasks).
	for i := 0; i < 4; i++ {
		reg.Observe("heavy", 10)
	}
	for i := 0; i < 100; i++ {
		reg.Observe("light", 0.1)
	}
	arch := amc.MustNew("2g", amc.CGroup{Freq: 2, N: 2}, amc.CGroup{Freq: 1, N: 2})
	m := freshMap(reg, arch)
	if m.K() != 2 {
		t.Fatalf("K=%d", m.K())
	}
	hc, lc := m.ClusterOf("heavy"), m.ClusterOf("light")
	if hc > lc {
		t.Fatalf("heavy class (%d) allocated to slower cluster than light (%d)", hc, lc)
	}
	if got := m.Classes(hc); len(got) == 0 {
		t.Fatal("Classes() empty for heavy cluster")
	}
}

func TestAllocatorReorganize(t *testing.T) {
	reg := task.NewRegistry()
	a := NewAllocator(reg, amc.AMC2)
	if a.Reorganize() {
		t.Fatal("Reorganize with no new data should be a no-op")
	}
	reg.Observe("f", 5)
	if !a.Reorganize() {
		t.Fatal("Reorganize after Observe should rebuild")
	}
	if a.Reorganize() {
		t.Fatal("second Reorganize without new data should be a no-op")
	}
	if a.Reorganizations() != 1 {
		t.Fatalf("Reorganizations=%d want 1", a.Reorganizations())
	}
	if !a.Map().Known("f") {
		t.Fatal("rebuilt map does not know observed class")
	}
	if a.Registry() != reg || a.Arch() != amc.AMC2 {
		t.Fatal("accessors broken")
	}
}

func TestAllocatorTracksWorkloadShift(t *testing.T) {
	// A class that is heavy early but light later must migrate toward a
	// slower cluster as its running average falls (§III-A timely update).
	reg := task.NewRegistry()
	a := NewAllocator(reg, amc.MustNew("2g", amc.CGroup{Freq: 2, N: 2}, amc.CGroup{Freq: 1, N: 2}))
	for i := 0; i < 10; i++ {
		reg.Observe("other", 3)
	}
	reg.Observe("f", 10.1)
	reg.Observe("f", 10.1)
	a.Reorganize()
	before := a.ClusterOf("f")
	// Now many light observations drag f's average down far below other.
	for i := 0; i < 500; i++ {
		reg.Observe("f", 0.01)
	}
	a.Reorganize()
	after := a.ClusterOf("f")
	if !(after >= before) {
		t.Fatalf("class did not move to slower cluster: before=%d after=%d", before, after)
	}
	if before == a.Map().K()-1 {
		t.Fatalf("test vacuous: class already in slowest cluster before shift")
	}
}

func TestUseLiteralPartition(t *testing.T) {
	reg := task.NewRegistry()
	a := NewAllocator(reg, amc.AMC2)
	a.UseLiteralPartition()
	reg.Observe("f", 1)
	a.Reorganize() // must not panic; literal rule active
	if !a.Map().Known("f") {
		t.Fatal("literal allocator lost class")
	}
}

func TestAllocatorSetArch(t *testing.T) {
	// An online resize publishes a new shape through SetArch; the next
	// Reorganize must rebuild even though no class statistics changed (the
	// K/Ni trigger, as opposed to the class-history trigger), and the cut
	// must be re-scored against the new per-group capacities.
	reg := task.NewRegistry()
	before := amc.MustNew("before", amc.CGroup{Freq: 2, N: 1}, amc.CGroup{Freq: 1, N: 2})
	a := NewAllocator(reg, before)
	for _, f := range []string{"a", "b", "c", "d"} {
		reg.Observe(f, 1)
	}
	if !a.Reorganize() {
		t.Fatal("first Reorganize should rebuild")
	}
	// Equal capacities (2x1 vs 1x2), equal weights: an even split.
	if got := len(a.Map().Classes(0)); got != 2 {
		t.Fatalf("before resize: %d classes in cluster 0, want 2", got)
	}
	if a.Reorganize() {
		t.Fatal("Reorganize with no new data should be a no-op")
	}

	after, err := before.Resize([]int{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	a.SetArch(after)
	if a.Arch() != after {
		t.Fatal("SetArch did not publish the new architecture")
	}
	if !a.Reorganize() {
		t.Fatal("Reorganize after SetArch must rebuild despite unchanged statistics")
	}
	// Capacities are now 6 vs 1: the cut must shift toward the grown
	// fast group.
	if got := len(a.Map().Classes(0)); got <= 2 {
		t.Fatalf("after resize: %d classes in cluster 0, want the cut to move past 2", got)
	}
	if a.Reorganize() {
		t.Fatal("Reorganize after the rebuild should be a no-op again")
	}
}

// TestReorganizeReuse pins the reuse rule of the helper repartition: a
// rebuild whose assignment equals the published one re-publishes that very
// map (and still counts as a rebuild); a rebuild that moves a class
// publishes a new map and leaves the old one — which readers may still
// hold — untouched; and the scratch-reusing path always agrees with a
// from-scratch allocator's map.
func TestReorganizeReuse(t *testing.T) {
	arch := amc.MustNew("2g", amc.CGroup{Freq: 2, N: 2}, amc.CGroup{Freq: 1, N: 2})
	reg := task.NewRegistry()
	a := NewAllocator(reg, arch)
	for i := 0; i < 10; i++ {
		reg.Observe("other", 3)
	}
	reg.Observe("f", 10)
	a.Reorganize()
	m1 := a.Map()
	want1 := m1.Snapshot()

	reg.Observe("f", 10) // statistics move, the partition does not
	if !a.Reorganize() {
		t.Fatal("Reorganize after Observe should rebuild")
	}
	if a.Reorganizations() != 2 {
		t.Fatalf("Reorganizations=%d want 2", a.Reorganizations())
	}
	if a.Map() != m1 {
		t.Fatalf("identical assignment published a new map: %v then %v", want1, a.Map().Snapshot())
	}

	for i := 0; i < 500; i++ {
		reg.Observe("f", 0.01) // f drops below other and changes cluster
	}
	a.Reorganize()
	m2 := a.Map()
	if m2 == m1 || m2.ClusterOf("f") == m1.ClusterOf("f") {
		t.Fatalf("moved class did not publish a new map: %v then %v", want1, m2.Snapshot())
	}
	if got := m1.Snapshot(); !reflect.DeepEqual(got, want1) {
		t.Fatalf("published map was modified: %v, was %v", got, want1)
	}
	if got, want := m2.Snapshot(), freshMap(reg, arch).Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Reorganize built %v, a fresh allocator %v", got, want)
	}
}

// TestReorganizeConcurrent runs the live runtime's arrangement under the
// race detector: workers record through their shards and read the
// published map on the spawn path while more than one goroutine drives
// Reorganize, whose buffers are shared state under reorgMu. Every map a
// reader sees must be complete, and the final map must be the one a
// from-scratch build gives.
func TestReorganizeConcurrent(t *testing.T) {
	const workers, perWorker = 4, 2000
	reg := task.NewSharded(workers)
	a := NewAllocator(reg, amc.AMC2)
	classes := []string{"a", "b", "c", "d", "e", "f"}

	var recorders, helpers sync.WaitGroup
	stop := make(chan struct{})
	for h := 0; h < 2; h++ {
		helpers.Add(1)
		go func() {
			defer helpers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					a.Reorganize()
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		recorders.Add(1)
		go func(w int) {
			defer recorders.Done()
			rec := reg.Recorder(w)
			for i := 0; i < perWorker; i++ {
				c := classes[(i+w)%len(classes)]
				rec.Observe(c, float64(1+(i*7+w)%13), 0)
				m := a.Map()
				if g := m.ClusterOf(c); g < 0 || g >= m.K() {
					t.Errorf("class %s in cluster %d of %d", c, g, m.K())
					return
				}
			}
		}(w)
	}
	recorders.Wait()
	close(stop)
	helpers.Wait()

	a.Reorganize()
	if got, want := a.Map().Snapshot(), freshMap(reg, amc.AMC2).Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after quiescence Reorganize has %v, a fresh allocator %v", got, want)
	}
	if len(a.Map().Snapshot()) != len(classes) {
		t.Fatalf("final map knows %d classes, want %d", len(a.Map().Snapshot()), len(classes))
	}
}

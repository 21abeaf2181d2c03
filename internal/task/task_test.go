package task

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewLeafTask(t *testing.T) {
	tk := New("f", 2.5)
	if tk.Class != "f" || tk.Work != 2.5 || len(tk.Spawns) != 0 {
		t.Fatalf("unexpected task %+v", tk)
	}
	if tk.Remaining() != 2.5 {
		t.Fatalf("Remaining=%v", tk.Remaining())
	}
	if tk.NextStop() != 2.5 {
		t.Fatalf("NextStop=%v, want end of task", tk.NextStop())
	}
}

func TestNextStopWithSpawns(t *testing.T) {
	tk := New("f", 10)
	tk.Spawns = []Spawn{{At: 3, Child: New("c", 1)}, {At: 7, Child: New("c", 1)}}
	if tk.NextStop() != 3 {
		t.Fatalf("NextStop=%v want 3", tk.NextStop())
	}
	tk.Done_ = 3
	tk.NextSpawn = 1
	if tk.NextStop() != 7 {
		t.Fatalf("NextStop=%v want 7", tk.NextStop())
	}
	tk.NextSpawn = 2
	if tk.NextStop() != 10 {
		t.Fatalf("NextStop=%v want 10", tk.NextStop())
	}
}

func TestSortSpawnsClampsAndOrders(t *testing.T) {
	tk := New("f", 5)
	tk.Spawns = []Spawn{
		{At: 7, Child: New("a", 1)},
		{At: -1, Child: New("b", 1)},
		{At: 2, Child: New("c", 1)},
	}
	tk.SortSpawns()
	if tk.Spawns[0].At != 0 || tk.Spawns[1].At != 2 || tk.Spawns[2].At != 5 {
		t.Fatalf("spawns not clamped/sorted: %+v", tk.Spawns)
	}
}

func TestTotalWorkAndCount(t *testing.T) {
	root := New("r", 1)
	c1 := New("c", 2)
	c2 := New("c", 3)
	gc := New("g", 4)
	c1.Spawns = []Spawn{{At: 1, Child: gc}}
	root.Spawns = []Spawn{{At: 0, Child: c1}, {At: 1, Child: c2}}
	if got := root.TotalWork(); got != 10 {
		t.Fatalf("TotalWork=%v want 10", got)
	}
	if got := root.CountTasks(); got != 4 {
		t.Fatalf("CountTasks=%v want 4", got)
	}
}

func TestValidate(t *testing.T) {
	ok := New("r", 2)
	ok.Spawns = []Spawn{{At: 1, Child: New("c", 1)}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid task rejected: %v", err)
	}

	neg := New("r", -1)
	if err := neg.Validate(); err == nil {
		t.Fatal("negative work accepted")
	}

	nilChild := New("r", 2)
	nilChild.Spawns = []Spawn{{At: 1, Child: nil}}
	if err := nilChild.Validate(); err == nil {
		t.Fatal("nil child accepted")
	}

	unsorted := New("r", 5)
	unsorted.Spawns = []Spawn{{At: 3, Child: New("c", 1)}, {At: 1, Child: New("c", 1)}}
	if err := unsorted.Validate(); err == nil {
		t.Fatal("unsorted spawns accepted")
	}

	beyond := New("r", 2)
	beyond.Spawns = []Spawn{{At: 5, Child: New("c", 1)}}
	if err := beyond.Validate(); err == nil {
		t.Fatal("spawn beyond work accepted")
	}

	cyclic := New("r", 2)
	cyclic.Spawns = []Spawn{{At: 1, Child: cyclic}}
	if err := cyclic.Validate(); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Created: "created", Queued: "queued", Running: "running",
		Suspended: "suspended", Done: "done", State(42): "state(42)",
	} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String()=%q want %q", s, got, want)
		}
	}
}

func TestRegistryAlgorithm2(t *testing.T) {
	r := NewRegistry()
	// First observation creates the class TC(f, 1, w).
	if created := r.Observe("f", 4); !created {
		t.Fatal("first Observe should create the class")
	}
	c, ok := r.Lookup("f")
	if !ok || c.Count != 1 || c.AvgWork != 4 {
		t.Fatalf("after first observe: %+v", c)
	}
	// Update: TC(f, n, w) => TC(f, n+1, (n*w+wγ)/(n+1)).
	if created := r.Observe("f", 8); created {
		t.Fatal("second Observe should not create")
	}
	c, _ = r.Lookup("f")
	if c.Count != 2 || math.Abs(c.AvgWork-6) > 1e-12 {
		t.Fatalf("after second observe: %+v", c)
	}
	r.Observe("f", 3)
	c, _ = r.Lookup("f")
	if c.Count != 3 || math.Abs(c.AvgWork-5) > 1e-12 {
		t.Fatalf("after third observe: %+v", c)
	}
}

func TestRegistryRunningAverageProperty(t *testing.T) {
	// The running average of Algorithm 2 must equal the arithmetic mean.
	check := func(ws []float64) bool {
		r := NewRegistry()
		var sum float64
		n := 0
		for _, w := range ws {
			w = math.Abs(w)
			if math.IsInf(w, 0) || math.IsNaN(w) || w > 1e12 {
				continue
			}
			r.Observe("f", w)
			sum += w
			n++
		}
		if n == 0 {
			return true
		}
		c, _ := r.Lookup("f")
		mean := sum / float64(n)
		return c.Count == n && math.Abs(c.AvgWork-mean) <= 1e-9*math.Max(1, mean)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistrySnapshotOrder(t *testing.T) {
	r := NewRegistry()
	r.Observe("small", 1)
	r.Observe("big", 10)
	r.Observe("mid", 5)
	s := r.Snapshot()
	if len(s) != 3 || s[0].Name != "big" || s[1].Name != "mid" || s[2].Name != "small" {
		t.Fatalf("snapshot not sorted by AvgWork desc: %+v", s)
	}
	// Ties break by name for determinism.
	r2 := NewRegistry()
	r2.Observe("b", 1)
	r2.Observe("a", 1)
	s2 := r2.Snapshot()
	if s2[0].Name != "a" {
		t.Fatalf("tie not broken by name: %+v", s2)
	}
	// The registry remembers the last sorted order between snapshots; a
	// rank change since then must still come out sorted, and a reused
	// buffer must hold exactly what a fresh Snapshot returns.
	for i := 0; i < 20; i++ {
		r.Observe("small", 100)
	}
	r.Observe("new", 7)
	buf := r.AppendSnapshot(s[:0])
	if len(buf) != 4 || buf[0].Name != "small" || buf[1].Name != "big" || buf[2].Name != "new" || buf[3].Name != "mid" {
		t.Fatalf("snapshot after rank change not sorted: %+v", buf)
	}
	if fresh := r.Snapshot(); !slices.Equal(buf, fresh) {
		t.Fatalf("reused buffer %+v differs from fresh snapshot %+v", buf, fresh)
	}
}

func TestRegistryEpochAndReset(t *testing.T) {
	r := NewRegistry()
	e0 := r.Epoch()
	r.Observe("f", 1)
	if r.Epoch() == e0 {
		t.Fatal("epoch did not advance on Observe")
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatal("Reset left classes")
	}
	if _, ok := r.Lookup("f"); ok {
		t.Fatal("Lookup found class after Reset")
	}
}

func TestClassTotalWork(t *testing.T) {
	c := Class{Name: "f", Count: 4, AvgWork: 2.5}
	if c.TotalWork() != 10 {
		t.Fatalf("TotalWork=%v want 10", c.TotalWork())
	}
}

func TestRegistryConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 1000; i++ {
				r.Observe("f", 2)
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	c, _ := r.Lookup("f")
	if c.Count != 4000 || math.Abs(c.AvgWork-2) > 1e-9 {
		t.Fatalf("concurrent observes lost updates: %+v", c)
	}
}

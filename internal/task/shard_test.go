package task

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// obsSeq builds a deterministic observation sequence over a handful of
// classes (seeded LCG so runs are reproducible without the rng package).
type obs struct {
	class    string
	workload float64
	cmpi     float64
}

func obsSeq(n int) []obs {
	out := make([]obs, n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range out {
		state = state*6364136223846793005 + 1442695040888963407
		cls := benchClasses[state%uint64(len(benchClasses))]
		w := float64((state>>32)%1000) * 1e-4
		c := float64((state>>48)%100) * 1e-3
		out[i] = obs{class: cls, workload: w, cmpi: c}
	}
	return out
}

// TestShardedMergeMatchesDirect asserts the determinism contract of the
// sharded registry: folding the same observation sequence through 16
// per-worker recorders (round-robin) and merging yields the same TC(f, n, w)
// as the single-lock direct path — counts exactly, averages up to float
// rounding (the cumulative mean is order-independent mathematically; only
// summation order differs).
func TestShardedMergeMatchesDirect(t *testing.T) {
	seq := obsSeq(10_000)

	direct := NewRegistry()
	for _, o := range seq {
		direct.ObserveFull(o.class, o.workload, o.cmpi)
	}

	const shards = 16
	sharded := NewSharded(shards)
	for i, o := range seq {
		sharded.Recorder(i%shards).Observe(o.class, o.workload, o.cmpi)
	}

	want := direct.Snapshot()
	got := sharded.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("class count: got %d, want %d", len(got), len(want))
	}
	for _, w := range want {
		g, ok := sharded.Lookup(w.Name)
		if !ok {
			t.Fatalf("class %q missing from sharded registry", w.Name)
		}
		if g.Count != w.Count {
			t.Errorf("%s: Count got %d, want %d", w.Name, g.Count, w.Count)
		}
		if !closeRel(g.AvgWork, w.AvgWork, 1e-9) {
			t.Errorf("%s: AvgWork got %v, want %v", w.Name, g.AvgWork, w.AvgWork)
		}
		if !closeRel(g.AvgCMPI, w.AvgCMPI, 1e-9) {
			t.Errorf("%s: AvgCMPI got %v, want %v", w.Name, g.AvgCMPI, w.AvgCMPI)
		}
	}
	if de, se := direct.Epoch(), sharded.Epoch(); de != se {
		t.Errorf("Epoch: direct %d, sharded %d", de, se)
	}
}

func closeRel(a, b, eps float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= eps*math.Max(math.Abs(a), math.Abs(b))
}

// TestShardedEWMAAppliesAtMergeTime pins the SetEWMA ordering contract
// under sharding: the averaging mode applies when shard deltas are merged,
// not when they are recorded. Observations recorded before SetEWMA but
// merged after it are folded with the new weight, as one batch at its mean.
func TestShardedEWMAAppliesAtMergeTime(t *testing.T) {
	reg := NewSharded(2)
	rec := reg.Recorder(0)

	rec.Observe("f", 1.0, 0)
	if c, _ := reg.Lookup("f"); c.AvgWork != 1.0 || c.Count != 1 {
		t.Fatalf("after first merge: got %+v", c)
	}

	// Recorded under the cumulative-mean mode, merged after SetEWMA: the
	// pending batch {3, 5} folds with α=0.5 as one batch at its mean 4 —
	// new = (1-α)²·1 + (1-(1-α)²)·4 = 0.25 + 3 = 3.25. The cumulative mean
	// would have given (1+3+5)/3 = 3.
	rec.Observe("f", 3.0, 0)
	rec.Observe("f", 5.0, 0)
	reg.SetEWMA(0.5)
	c, _ := reg.Lookup("f")
	if c.Count != 3 || !closeRel(c.AvgWork, 3.25, 1e-12) {
		t.Fatalf("EWMA batch merge: got n=%d w=%v, want n=3 w=3.25", c.Count, c.AvgWork)
	}

	// Already-merged history is never rewritten: switching back to the
	// cumulative mean only affects how future batches fold in.
	reg.SetEWMA(0)
	if c, _ := reg.Lookup("f"); !closeRel(c.AvgWork, 3.25, 1e-12) {
		t.Fatalf("mode switch rewrote merged history: %v", c.AvgWork)
	}
	rec.Observe("f", 3.25, 0)
	if c, _ := reg.Lookup("f"); c.Count != 4 || !closeRel(c.AvgWork, 3.25, 1e-12) {
		t.Fatalf("cumulative fold after switch: got %+v", c)
	}
}

// TestShardedResetDropsPending asserts Reset discards shard observations
// that were recorded but never merged.
func TestShardedResetDropsPending(t *testing.T) {
	reg := NewSharded(4)
	reg.Recorder(1).Observe("g", 2.0, 0)
	reg.Recorder(2).Observe("g", 4.0, 0)
	reg.Reset()
	if n := reg.Len(); n != 0 {
		t.Fatalf("Len after Reset: got %d, want 0", n)
	}
	reg.Recorder(1).Observe("g", 8.0, 0)
	if c, ok := reg.Lookup("g"); !ok || c.Count != 1 || c.AvgWork != 8.0 {
		t.Fatalf("post-Reset observation: got %+v ok=%v", c, ok)
	}
}

// TestShardedLateClasses interleaves merges with classes joining a shard:
// the registry's cursors are kept per slot position, so a class created
// after earlier ones were merged must fold from zero while the earlier
// ones fold only their new observations.
func TestShardedLateClasses(t *testing.T) {
	reg := NewSharded(2)
	rec := reg.Recorder(1)
	rec.Observe("a", 2, 0)
	if c, _ := reg.Lookup("a"); c.Count != 1 || c.AvgWork != 2 {
		t.Fatalf("first merge: %+v", c)
	}
	rec.Observe("b", 4, 0)
	rec.Observe("a", 6, 0)
	reg.Recorder(0).Observe("b", 8, 0)
	if c, _ := reg.Lookup("a"); c.Count != 2 || c.AvgWork != 4 {
		t.Fatalf("a after second merge: %+v", c)
	}
	if c, _ := reg.Lookup("b"); c.Count != 2 || c.AvgWork != 6 {
		t.Fatalf("b after second merge: %+v", c)
	}
	reg.Reset()
	rec.Observe("c", 1, 0)
	rec.Observe("b", 3, 0)
	if c, _ := reg.Lookup("b"); c.Count != 1 || c.AvgWork != 3 {
		t.Fatalf("b after Reset: %+v", c)
	}
	if n := reg.Len(); n != 2 {
		t.Fatalf("Len after Reset: got %d, want 2", n)
	}
}

// TestShardedConcurrentRecorders hammers the record/merge protocol from
// all sides under the race detector: every shard's owner records
// concurrently while pollers merge via Lookup/Snapshot/Len/Epoch. The
// final merged counts must account for every observation exactly once.
func TestShardedConcurrentRecorders(t *testing.T) {
	const (
		shards = 8
		perRec = 2000
	)
	reg := NewSharded(shards)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch p {
				case 0:
					reg.Snapshot()
				case 1:
					reg.Lookup("c1")
				default:
					_ = reg.Len()
					_ = reg.Epoch()
				}
			}
		}(p)
	}

	var rwg sync.WaitGroup
	for w := 0; w < shards; w++ {
		rwg.Add(1)
		go func(w int) {
			defer rwg.Done()
			rec := reg.Recorder(w)
			for i := 0; i < perRec; i++ {
				rec.Observe(fmt.Sprintf("c%d", i%5), float64(i%7)*0.01, 0)
			}
		}(w)
	}
	rwg.Wait()
	close(stop)
	wg.Wait()

	total := 0
	for _, c := range reg.Snapshot() {
		total += c.Count
	}
	if want := shards * perRec; total != want {
		t.Fatalf("merged observation count: got %d, want %d", total, want)
	}
	if e := reg.Epoch(); e != uint64(shards*perRec) {
		t.Fatalf("Epoch: got %d, want %d", e, shards*perRec)
	}
}

func TestRecorderGrowsShardSet(t *testing.T) {
	// Recorder(w) beyond the constructed shard count is the entry point an
	// elastic runtime uses to hand a joining worker a fresh history shard:
	// the set must grow copy-on-write, keep old recorders valid, return a
	// stable pointer, and fold the grown shard's observations exactly.
	reg := NewSharded(2)
	if got := reg.Shards(); got != 2 {
		t.Fatalf("constructed shards = %d, want 2", got)
	}
	rec := reg.Recorder(5)
	if got := reg.Shards(); got != 6 {
		t.Fatalf("shards after Recorder(5) = %d, want 6", got)
	}
	if reg.Recorder(5) != rec {
		t.Fatal("grown recorder pointer not stable across calls")
	}
	if reg.Recorder(1) == nil || reg.Recorder(3) == nil {
		t.Fatal("growth lost intermediate recorders")
	}

	reg.Recorder(0).Observe("a", 1, 0)
	rec.Observe("b", 2, 0)
	rec.Observe("b", 4, 0)
	cl, ok := reg.Lookup("b")
	if !ok || cl.Count != 2 {
		t.Fatalf("grown shard's class after merge: %+v ok=%v", cl, ok)
	}
	if cl.AvgWork != 3 {
		t.Fatalf("grown shard's AvgWork = %v, want 3", cl.AvgWork)
	}
	total := 0
	for _, c := range reg.Snapshot() {
		total += c.Count
	}
	if total != 3 {
		t.Fatalf("merged observation count = %d, want 3 (old + grown shards)", total)
	}
}

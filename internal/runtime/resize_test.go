package runtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wats/internal/amc"
	"wats/internal/obs"
)

// TestResizeValidation: malformed shapes are rejected before anything is
// published, a no-op resize is free, and a resize after shutdown fails
// cleanly.
func TestResizeValidation(t *testing.T) {
	rt, err := New(Config{Arch: smallArch(), Seed: 20, DisableSpeedEmulation: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Resize([]int{3}); err == nil {
		t.Fatal("wrong group count accepted")
	}
	if err := rt.Resize([]int{4, 0}); err == nil {
		t.Fatal("empty c-group accepted")
	}
	if err := rt.Resize([]int{2, 2}); err != nil {
		t.Fatalf("no-op resize: %v", err)
	}
	if got := rt.RetiredWorkers(); got != 0 {
		t.Fatalf("no-op resize retired %d workers", got)
	}
	rt.Shutdown()
	if err := rt.Resize([]int{4, 4}); err != ErrShutdown {
		t.Fatalf("resize after shutdown: %v, want ErrShutdown", err)
	}
}

// TestResizeGrowShrink walks the pool 2 → 16 → 2 with work in between:
// the table, shape, arch and id recycling all have to track.
func TestResizeGrowShrink(t *testing.T) {
	arch := amc.MustNew("elastic", amc.CGroup{Freq: 2, N: 1}, amc.CGroup{Freq: 1, N: 1})
	rt, err := New(Config{Arch: arch, Policy: "WATS", Seed: 21, DisableSpeedEmulation: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	var ran atomic.Int64
	burst := func(n int) {
		for i := 0; i < n; i++ {
			rt.Spawn("burst", func(ctx *Ctx) { ran.Add(1) })
		}
		rt.Wait()
	}
	burst(50)
	if err := rt.Resize([]int{8, 8}); err != nil {
		t.Fatal(err)
	}
	if got := rt.Workers(); got != 16 {
		t.Fatalf("after grow: %d workers", got)
	}
	if s := rt.Shape(); s[0] != 8 || s[1] != 8 {
		t.Fatalf("after grow: shape %v", s)
	}
	if got := rt.Arch().NumCores(); got != 16 {
		t.Fatalf("arch not republished: %d cores", got)
	}
	burst(200)
	if err := rt.Resize([]int{1, 1}); err != nil {
		t.Fatal(err)
	}
	if got, r := rt.Workers(), rt.RetiredWorkers(); got != 2 || r != 14 {
		t.Fatalf("after shrink: %d workers, %d retired", got, r)
	}
	burst(50)
	if got := ran.Load(); got != 300 {
		t.Fatalf("ran %d tasks, want 300", got)
	}
	// Exact accounting: live stats + the retired fold cover every task.
	if got := rt.TasksRun(); got != 300 {
		t.Fatalf("TasksRun = %d, want 300", got)
	}
	// Growing again reuses retired slot ids instead of growing the id
	// space without bound.
	if err := rt.Resize([]int{2, 2}); err != nil {
		t.Fatal(err)
	}
	for _, s := range rt.Stats() {
		if s.Worker >= 16 {
			t.Fatalf("worker id %d not recycled (stats %+v)", s.Worker, s)
		}
	}
}

// TestShrinkDrainsQueuedTasks is the deterministic drain-on-shrink test:
// a victim worker holding queued tasks in its own pools retires while
// those tasks are provably un-run, and every one of them must be handed
// back through the shared inbox and executed by a survivor.
func TestShrinkDrainsQueuedTasks(t *testing.T) {
	arch := amc.MustNew("drain", amc.CGroup{Freq: 1, N: 2})
	rt, err := New(Config{Arch: arch, Seed: 22, DisableSpeedEmulation: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()

	// Block both workers on gates so the queue placement below is fully
	// deterministic: neither worker can acquire anything until released.
	// A gate task first spawns as many children as fill[its worker] asks:
	// a worker's pools take pushes from their owner only.
	const children = 50
	var ran atomic.Int64
	gate := make(chan struct{})
	started := make(chan int, 2)
	filled := make(chan struct{}, 2)
	fill := []chan int{make(chan int, 1), make(chan int, 1)}
	for i := 0; i < 2; i++ {
		rt.Spawn("gate", func(ctx *Ctx) {
			started <- ctx.Worker
			for n := <-fill[ctx.Worker]; n > 0; n-- {
				ctx.Spawn("child", func(ctx *Ctx) { ran.Add(1) })
			}
			filled <- struct{}{}
			<-gate
		})
	}
	ids := map[int]bool{}
	for i := 0; i < 2; i++ {
		select {
		case id := <-started:
			ids[id] = true
		case <-time.After(5 * time.Second):
			t.Fatal("gate tasks never started")
		}
	}
	if len(ids) != 2 {
		t.Fatalf("gates did not land on two distinct workers: %v", ids)
	}

	// The future victim's gate task queues the children in its own pools
	// (the shrink below retires the highest-id worker of the group); both
	// workers are gated, so nothing can run them yet.
	var victim *worker
	for _, w := range rt.table.Load().ws {
		if victim == nil || w.id > victim.id {
			victim = w
		}
	}
	for id := range fill {
		if id == victim.id {
			fill[id] <- children
		} else {
			fill[id] <- 0
		}
	}
	<-filled
	<-filled
	depth := 0
	for _, p := range victim.pools {
		depth += p.Len()
	}
	if depth != children {
		t.Fatalf("victim pools hold %d tasks, want %d", depth, children)
	}

	done := make(chan error, 1)
	go func() { done <- rt.Resize([]int{1}) }()
	// The resize must mark the victim and then block on its exit — the
	// victim is still gated on its running task.
	deadline := time.Now().Add(5 * time.Second)
	for !victim.retire.Load() {
		if time.Now().After(deadline) {
			t.Fatal("resize never marked the victim")
		}
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case err := <-done:
		t.Fatalf("resize returned (%v) while the victim still runs its task", err)
	case <-time.After(10 * time.Millisecond):
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("resize: %v", err)
	}
	rt.Wait()
	if got := ran.Load(); got != children {
		t.Fatalf("drained children ran %d times, want %d — tasks lost in the shrink", got, children)
	}
	if w, r := rt.Workers(), rt.RetiredWorkers(); w != 1 || r != 1 {
		t.Fatalf("after shrink: %d workers, %d retired", w, r)
	}
	s := rt.Snapshot()
	if s.InboxDepth != 0 || s.Outstanding != 0 {
		t.Fatalf("undrained state after shrink: %+v", s)
	}
}

// TestResizeStressExactAccounting is the acceptance stress test: the
// pool cycles 2 → 16 → 2 while load runs, under the race detector, and
// not one completion may be lost or double-counted — asserted against
// the spawner's own count, the runtime's task counters (live + retired
// fold) and the tracer's completes counter. A concurrent Snapshot/Stats
// poller checks the introspection surface holds its invariants mid-flight.
func TestResizeStressExactAccounting(t *testing.T) {
	arch := amc.MustNew("elastic", amc.CGroup{Freq: 2, N: 1}, amc.CGroup{Freq: 1, N: 1})
	tr := obs.NewTracer(16, 256)
	rt, err := New(Config{Arch: arch, Policy: "WATS", Seed: 23,
		DisableSpeedEmulation: true, Obs: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()

	stop := make(chan struct{})
	resizerDone := make(chan struct{})
	var aux sync.WaitGroup

	// Resizer: three full 2 → 16 → 2 cycles while the load runs.
	aux.Add(1)
	go func() {
		defer aux.Done()
		defer close(resizerDone)
		shapes := [][]int{{2, 2}, {8, 8}, {4, 1}, {1, 1}}
		for i := 0; i < 3*len(shapes); i++ {
			if err := rt.Resize(shapes[i%len(shapes)]); err != nil {
				t.Errorf("resize %v: %v", shapes[i%len(shapes)], err)
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	// Introspection poller: Snapshot, Stats and the tracer must stay
	// coherent while the worker set churns underneath them.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := rt.Snapshot()
			total := 0
			for _, n := range s.Shape {
				total += n
			}
			if total != s.Workers {
				t.Errorf("snapshot shape %v does not sum to workers %d", s.Shape, s.Workers)
				return
			}
			if len(s.Stats) != len(s.DequeDepths) {
				t.Errorf("snapshot rows misaligned: %d stats, %d depth rows", len(s.Stats), len(s.DequeDepths))
				return
			}
			_ = rt.Stats()
			_ = tr.Counters()
			_ = tr.Events()
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Spawner: keep the pool loaded until the resizer has finished its
	// cycles, so every grow and every shrink happens under live traffic.
	var ran atomic.Int64
	var spawned int64
	done := false
	for !done {
		for i := 0; i < 20; i++ {
			err := rt.Spawn("root", func(ctx *Ctx) {
				ran.Add(1)
				for j := 0; j < 5; j++ {
					ctx.Spawn("child", func(ctx *Ctx) {
						ran.Add(1)
						spin(20 * time.Microsecond)
					})
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			spawned += 6
		}
		select {
		case <-resizerDone:
			done = true
		default:
		}
	}
	rt.Wait()
	close(stop)
	aux.Wait()

	if rt.RetiredWorkers() == 0 {
		t.Fatal("stress run never retired a worker")
	}
	if got := ran.Load(); got != spawned {
		t.Fatalf("ran %d of %d spawned tasks", got, spawned)
	}
	if got := rt.TasksRun(); got != spawned {
		t.Fatalf("TasksRun = %d, want %d (live+retired fold must be exact)", got, spawned)
	}
	c := tr.Counters()
	if c.Completes != uint64(spawned) {
		t.Fatalf("tracer completes = %d, want %d", c.Completes, spawned)
	}
	if c.Resizes == 0 {
		t.Fatal("no resize events recorded")
	}
	if int(c.Workers) != rt.Workers() {
		t.Fatalf("worker gauge %d != live count %d", c.Workers, rt.Workers())
	}
}

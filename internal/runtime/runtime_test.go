package runtime

import (
	"sync/atomic"
	"testing"
	"time"

	"wats/internal/amc"
	"wats/internal/sched"
)

// spin burns roughly d of CPU time (wall-clock bounded loop).
func spin(d time.Duration) {
	end := time.Now().Add(d)
	x := 1.0
	for time.Now().Before(end) {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	_ = x
}

func smallArch() *amc.Arch {
	return amc.MustNew("t", amc.CGroup{Freq: 2, N: 2}, amc.CGroup{Freq: 1, N: 2})
}

func TestRuntimeRunsAllTasks(t *testing.T) {
	rt, err := New(Config{Arch: smallArch(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	var ran atomic.Int64
	const n = 200
	for i := 0; i < n; i++ {
		rt.Spawn("tiny", func(ctx *Ctx) {
			ran.Add(1)
		})
	}
	rt.Wait()
	if got := ran.Load(); got != n {
		t.Fatalf("ran %d tasks, want %d", got, n)
	}
	// Every task observed in the registry.
	c, ok := rt.Registry().Lookup("tiny")
	if !ok || c.Count != n {
		t.Fatalf("registry: %+v", c)
	}
}

func TestRuntimeChildSpawns(t *testing.T) {
	rt, err := New(Config{Arch: smallArch(), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	var leafs atomic.Int64
	rt.Spawn("root", func(ctx *Ctx) {
		for i := 0; i < 20; i++ {
			ctx.Spawn("mid", func(ctx *Ctx) {
				for j := 0; j < 5; j++ {
					ctx.Spawn("leaf", func(ctx *Ctx) { leafs.Add(1) })
				}
			})
		}
	})
	rt.Wait()
	if got := leafs.Load(); got != 100 {
		t.Fatalf("leafs=%d want 100", got)
	}
}

func TestRuntimeStealsAcrossWorkers(t *testing.T) {
	rt, err := New(Config{Arch: smallArch(), Seed: 3, DisableSpeedEmulation: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	// Fan the work out from one root: its children land in the spawning
	// worker's own pools (external roots go through the shared inbox and
	// are popped, not stolen), so the backlog must spread by stealing.
	rt.Spawn("root", func(ctx *Ctx) {
		for i := 0; i < 64; i++ {
			ctx.Spawn("work", func(ctx *Ctx) { spin(time.Millisecond) })
		}
	})
	rt.Wait()
	stats := rt.Stats()
	var steals, ran int64
	workers := 0
	for _, s := range stats {
		steals += s.Steals
		ran += s.TasksRun
		if s.TasksRun > 0 {
			workers++
		}
	}
	if ran != 65 { // the root plus its 64 children
		t.Fatalf("ran=%d", ran)
	}
	if steals == 0 {
		t.Fatal("no steals happened (all tasks spawned at worker 0)")
	}
	if workers < 2 {
		t.Fatal("work never spread beyond one worker")
	}
}

func TestRuntimeLearnsWorkloads(t *testing.T) {
	rt, err := New(Config{Arch: smallArch(), Seed: 4, HelperPeriod: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	for round := 0; round < 3; round++ {
		for i := 0; i < 8; i++ {
			rt.Spawn("heavy", func(ctx *Ctx) { spin(8 * time.Millisecond) })
			rt.Spawn("light", func(ctx *Ctx) { spin(time.Millisecond) })
		}
		rt.Wait()
	}
	h, ok1 := rt.Registry().Lookup("heavy")
	l, ok2 := rt.Registry().Lookup("light")
	if !ok1 || !ok2 {
		t.Fatal("classes not learned")
	}
	if h.AvgWork <= l.AvgWork {
		t.Fatalf("heavy (%v) not measured above light (%v)", h.AvgWork, l.AvgWork)
	}
	// After reorganization, the heavy class must sit on a cluster at
	// least as fast as the light class's.
	rt.Allocator().Reorganize()
	m := rt.Allocator().Map()
	if m.ClusterOf("heavy") > m.ClusterOf("light") {
		t.Fatalf("heavy on slower cluster (%d) than light (%d)",
			m.ClusterOf("heavy"), m.ClusterOf("light"))
	}
}

func TestRuntimeRandomPolicy(t *testing.T) {
	rt, err := New(Config{Arch: smallArch(), Policy: sched.KindPFT, Seed: 5, DisableSpeedEmulation: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	var ran atomic.Int64
	for i := 0; i < 100; i++ {
		rt.Spawn("x", func(ctx *Ctx) { ran.Add(1) })
	}
	rt.Wait()
	if ran.Load() != 100 {
		t.Fatalf("ran=%d", ran.Load())
	}
}

func TestRuntimeSpeedEmulation(t *testing.T) {
	// With emulation on, a slow worker's reported busy time includes the
	// stall: per-task wall ≈ d/rel. Check that normalized workloads stay
	// ≈ d regardless of the executing worker.
	rt, err := New(Config{Arch: smallArch(), Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	const d = 4 * time.Millisecond
	for i := 0; i < 32; i++ {
		rt.Spawn("unit", func(ctx *Ctx) { spin(d) })
	}
	rt.Wait()
	c, _ := rt.Registry().Lookup("unit")
	got := time.Duration(c.AvgWork * float64(time.Second))
	if got < d/2 || got > 3*d {
		t.Fatalf("normalized workload %v, want ≈ %v", got, d)
	}
}

func TestRuntimeShutdownIdempotent(t *testing.T) {
	rt, err := New(Config{Arch: smallArch(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	rt.Shutdown() // must not hang or panic
	if err := rt.Spawn("after", func(ctx *Ctx) {}); err != ErrShutdown {
		t.Fatalf("Spawn after Shutdown: got %v, want ErrShutdown", err)
	}
	// Spawn after shutdown is rejected; Wait must not hang.
	rt.Wait()
}

func TestRuntimeRequiresArch(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing arch accepted")
	}
}

// TestRuntimeLockFreeMode: the runtime's one pool mode, a lock-free
// Chase-Lev deque per worker and cluster, runs 16 roots that each spawn
// 10 leaves from inside a task, and the registry counts every leaf.
func TestRuntimeLockFreeMode(t *testing.T) {
	rt, err := New(Config{Arch: smallArch(), Seed: 9, DisableSpeedEmulation: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	var leafs atomic.Int64
	for i := 0; i < 16; i++ {
		rt.Spawn("root", func(ctx *Ctx) {
			for j := 0; j < 10; j++ {
				ctx.Spawn("leaf", func(ctx *Ctx) { leafs.Add(1) })
			}
		})
	}
	rt.Wait()
	if got := leafs.Load(); got != 160 {
		t.Fatalf("leafs=%d want 160", got)
	}
	c, ok := rt.Registry().Lookup("leaf")
	if !ok || c.Count != 160 {
		t.Fatalf("registry: %+v", c)
	}
}

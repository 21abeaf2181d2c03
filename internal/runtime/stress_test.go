package runtime

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"wats/internal/sched"
)

// TestRuntimeConcurrentStress exercises the whole lock-free hot path at
// once, for the race detector: external spawns racing with worker-side
// ctx.Spawn fan-out, per-worker shard recording on every completion, the
// helper thread reorganizing on a tight period (folding shards and
// publishing cluster maps), and Snapshot/Registry pollers reading the
// merged view throughout. Every spawned task must run exactly once and
// every completion must be accounted for in the merged class table.
func TestRuntimeConcurrentStress(t *testing.T) {
	rt, err := New(Config{
		Arch:                  smallArch(),
		Policy:                sched.KindWATS,
		Seed:                  99,
		HelperPeriod:          100 * time.Microsecond,
		DisableSpeedEmulation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()

	stop := make(chan struct{})
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rt.Snapshot()
			rt.Registry().Lookup("leaf")
		}
	}()

	var ran atomic.Int64
	const (
		roots    = 64
		children = 8
	)
	classes := [...]string{"leaf", "mid", "heavy"}
	for i := 0; i < roots; i++ {
		cls := classes[i%len(classes)]
		rt.Spawn(cls, func(ctx *Ctx) {
			ran.Add(1)
			g := ctx.Group()
			for j := 0; j < children; j++ {
				c := classes[j%len(classes)]
				grand := fmt.Sprintf("grand%d", j%2)
				g.Spawn(ctx, c, func(ctx *Ctx) {
					ran.Add(1)
					ctx.Spawn(grand, func(ctx *Ctx) {
						ran.Add(1)
					})
				})
			}
			g.Wait(ctx)
		})
	}
	rt.Wait()
	close(stop)
	<-pollDone

	want := int64(roots * (1 + children*2))
	if got := ran.Load(); got != want {
		t.Fatalf("tasks run: got %d, want %d", got, want)
	}
	total := 0
	for _, c := range rt.Registry().Snapshot() {
		total += c.Count
	}
	if total != int(want) {
		t.Fatalf("merged completions: got %d, want %d", total, want)
	}
}

// TestRuntimeParkWakeNoLostTasks targets the park/wake handshake: long
// idle gaps force every worker to park, then a burst of spawns must wake
// them — a lost wakeup hangs this test.
func TestRuntimeParkWakeNoLostTasks(t *testing.T) {
	rt, err := New(Config{Arch: smallArch(), Seed: 5, DisableSpeedEmulation: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()

	var ran atomic.Int64
	for round := 0; round < 50; round++ {
		time.Sleep(200 * time.Microsecond) // let every worker park
		for i := 0; i < 8; i++ {
			if err := rt.Spawn("burst", func(ctx *Ctx) { ran.Add(1) }); err != nil {
				t.Fatal(err)
			}
		}
		rt.Wait()
	}
	if got := ran.Load(); got != 50*8 {
		t.Fatalf("burst tasks run: got %d, want %d", got, 50*8)
	}
}

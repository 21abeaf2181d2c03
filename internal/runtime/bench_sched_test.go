package runtime

import (
	"fmt"
	"sync"
	"testing"

	"wats/internal/amc"
	"wats/internal/sched"
)

var spawnClasses = [...]string{"ga_evolve", "ga_eval", "lzw_chunk", "md5_block"}

// benchArch builds a w-core architecture (two c-groups once there are
// enough cores for one of each) so the WATS spawn path exercises the real
// cluster routing.
func benchArch(w int) *amc.Arch {
	if w < 2 {
		return amc.MustNew("bench1", amc.CGroup{Freq: 2.0, N: w})
	}
	fast := (w + 1) / 2
	return amc.MustNew(fmt.Sprintf("bench%d", w),
		amc.CGroup{Freq: 2.0, N: fast}, amc.CGroup{Freq: 1.0, N: w - fast})
}

// BenchmarkSpawnParallel measures spawn-to-complete throughput of the live
// runtime under worker parallelism: each worker runs one root task that
// spawns its share of no-op tasks — the per-worker spawn path (cluster
// routing, owner push, wakeup) — while the other workers steal and drain
// them concurrently. The root joins every 1024 children with Group.Wait,
// helping to run them, so the queue stays bounded whatever b.N is.
// DESIGN.md §7 records its numbers.
func BenchmarkSpawnParallel(b *testing.B) {
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			rt, err := New(Config{
				Arch:                  benchArch(workers),
				Policy:                sched.KindWATS,
				DisableSpeedEmulation: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			nop := func(ctx *Ctx) {}
			per := b.N/workers + 1
			// Every root waits until all have started, so each worker
			// holds exactly one and spawns from its own pools.
			var started sync.WaitGroup
			started.Add(workers)
			b.ResetTimer()
			for w := 0; w < workers; w++ {
				rt.Spawn("root", func(ctx *Ctx) {
					started.Done()
					started.Wait()
					for i := 0; i < per; {
						g := ctx.Group()
						for end := min(i+1024, per); i < end; i++ {
							g.Spawn(ctx, spawnClasses[(i+w)%len(spawnClasses)], nop)
						}
						g.Wait(ctx)
					}
				})
			}
			rt.Wait()
			b.StopTimer()
			rt.Shutdown()
		})
	}
}

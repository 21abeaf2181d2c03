// Forkjoin: structured fork-join parallelism (the runtime's equivalent of
// cilk_spawn/cilk_sync) on the live WATS runtime — a recursive parallel
// merge sort run under several scheduling policies selected by kind, and
// an island-model GA with migration barriers between generations, both on
// an emulated asymmetric machine.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"wats/internal/amc"
	"wats/internal/kernels"
	"wats/internal/obs"
	"wats/internal/rng"
	"wats/internal/runtime"
	"wats/internal/sched"
)

func main() {
	traceOut := flag.String("trace", "", "write the island-GA run's scheduler events as Chrome trace_event JSON to this file (load in ui.perfetto.dev)")
	flag.Parse()

	arch := amc.MustNew("fj-AMC",
		amc.CGroup{Freq: 2.0, N: 2}, amc.CGroup{Freq: 0.8, N: 2})

	// --- 1. Recursive parallel merge sort under each policy kind ------
	// Every sched.Kind but the snatching RTS and WATS-TS runs live; the
	// runtime builds the same Strategy from the kind name.
	for _, kind := range []sched.Kind{sched.KindCilk, sched.KindPFT, sched.KindWATS} {
		rt, err := runtime.New(runtime.Config{Arch: arch, Policy: kind, Seed: 1})
		if err != nil {
			panic(err)
		}
		r := rng.New(7)
		xs := make([]int, 200000)
		for i := range xs {
			xs[i] = r.Intn(1 << 30)
		}
		start := time.Now()
		rt.Spawn("msort", func(ctx *runtime.Ctx) { msort(ctx, xs) })
		rt.Wait()
		rt.Shutdown()
		fmt.Printf("%-5s parallel merge sort of %d ints: %v (sorted=%v)\n",
			kind, len(xs), time.Since(start).Round(time.Millisecond), sort.IntsAreSorted(xs))
	}

	cfg := runtime.Config{Arch: arch, Policy: sched.KindWATS, Seed: 1}
	if *traceOut != "" {
		cfg.Obs = obs.NewTracer(arch.NumCores(), 0)
	}
	rt, err := runtime.New(cfg)
	if err != nil {
		panic(err)
	}
	defer rt.Shutdown()

	// --- 2. Island GA with migration barriers -------------------------
	arch2 := kernels.NewArchipelago(6, kernels.GAConfig{Pop: 24, Genome: 12, Generations: 4}, 3)
	before := arch2.Best()
	start := time.Now()
	rt.Spawn("ga_driver", func(ctx *runtime.Ctx) {
		for round := 0; round < 5; round++ {
			g := ctx.Group()
			for _, is := range arch2.Islands {
				island := is
				// Islands have graded population sizes, so their Evolve
				// tasks have graded workloads — exactly what the
				// history-based allocation learns and exploits.
				g.Spawn(ctx, "ga_evolve", func(ctx *runtime.Ctx) { island.Evolve() })
			}
			g.Wait(ctx) // migration barrier
			arch2.Migrate()
		}
	})
	rt.Wait()
	fmt.Printf("island GA, 5 rounds × 6 islands: best fitness %.3f -> %.3f in %v\n",
		before, arch2.Best(), time.Since(start).Round(time.Millisecond))

	fmt.Println("\nlearned classes:")
	for _, c := range rt.Registry().Snapshot() {
		fmt.Printf("  %-10s n=%4d avg %.3fms\n", c.Name, c.Count, 1000*c.AvgWork)
	}

	if *traceOut != "" {
		th := make(map[int]string, arch.NumCores())
		for c := 0; c < arch.NumCores(); c++ {
			th[c] = fmt.Sprintf("worker %d (%.1f GHz)", c, arch.Speed(c))
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			panic(err)
		}
		err = obs.WriteChrome(f, obs.Stream{
			Name: "forkjoin island GA (WATS)", Events: rt.Tracer().Events(), Threads: th,
		})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			panic(err)
		}
		fmt.Printf("wrote Chrome trace to %s (open in ui.perfetto.dev)\n", *traceOut)
	}
}

func msort(ctx *runtime.Ctx, xs []int) {
	if len(xs) < 4096 {
		sort.Ints(xs)
		return
	}
	mid := len(xs) / 2
	left, right := xs[:mid], xs[mid:]
	g := ctx.Group()
	g.Spawn(ctx, "msort", func(ctx *runtime.Ctx) { msort(ctx, left) })
	msort(ctx, right)
	g.Wait(ctx)
	tmp := make([]int, 0, len(xs))
	i, j := 0, mid
	for i < mid && j < len(xs) {
		if xs[i] <= xs[j] {
			tmp = append(tmp, xs[i])
			i++
		} else {
			tmp = append(tmp, xs[j])
			j++
		}
	}
	tmp = append(tmp, xs[i:mid]...)
	tmp = append(tmp, xs[j:]...)
	copy(xs, tmp)
}

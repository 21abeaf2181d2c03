package runtime

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wats/internal/amc"
	"wats/internal/sched"
)

// allKinds is every policy kind of the unified strategy layer that does
// not snatch; each must run on the live runtime.
var allKinds = []sched.Kind{
	sched.KindShare, sched.KindCilk, sched.KindPFT,
	sched.KindWATS, sched.KindWATSNP, sched.KindWATSMem,
}

// TestAllKindsRunLive: every non-snatching sched.Kind is constructible
// for the live runtime and drains a nested spawn tree completely.
func TestAllKindsRunLive(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(string(kind), func(t *testing.T) {
			rt, err := New(Config{Arch: smallArch(), Policy: kind, Seed: 21, DisableSpeedEmulation: true})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Shutdown()
			var ran atomic.Int64
			for i := 0; i < 10; i++ {
				rt.Spawn("root", func(ctx *Ctx) {
					ran.Add(1)
					for j := 0; j < 5; j++ {
						ctx.Spawn("leaf", func(ctx *Ctx) { ran.Add(1) })
					}
				})
			}
			rt.Wait()
			if got := ran.Load(); got != 60 {
				t.Fatalf("ran %d tasks, want 60", got)
			}
			if rt.Registry() == nil || rt.Allocator() == nil {
				t.Fatal("registry/allocator must be non-nil for every kind")
			}
		})
	}
}

// TestSnatchingPoliciesRefused: a goroutine cannot be preempted, so New
// refuses every strategy that snatches — the two built-in kinds and a
// caller-configured one — with an error naming the policy it would
// behave as.
func TestSnatchingPoliciesRefused(t *testing.T) {
	custom := sched.NewWATSNP()
	custom.Snatch = true
	for _, tc := range []struct {
		name string
		cfg  Config
		as   string
	}{
		{"RTS", Config{Policy: sched.KindRTS}, "Cilk"},
		{"WATS-TS", Config{Policy: sched.KindWATSTS}, "WATS"},
		{"custom", Config{Strategy: custom}, "WATS-NP without snatching"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Arch = smallArch()
			rt, err := New(tc.cfg)
			if err == nil {
				rt.Shutdown()
				t.Fatal("snatching strategy accepted")
			}
			if want := "behave as " + tc.as; !strings.HasSuffix(err.Error(), want) {
				t.Fatalf("error %q does not say %q", err, want)
			}
		})
	}
}

// TestUnknownKindRejected: a bogus kind fails construction with an error,
// not a panic, through the same validation path the simulator uses.
func TestUnknownKindRejected(t *testing.T) {
	if _, err := New(Config{Arch: smallArch(), Policy: sched.Kind("bogus")}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestCustomStrategyOverride: Config.Strategy runs a caller-configured
// WATS variant (ablation knobs) on real goroutines.
func TestCustomStrategyOverride(t *testing.T) {
	s := sched.NewWATS()
	s.EWMAAlpha = 0.5
	rt, err := New(Config{Arch: smallArch(), Strategy: s, Seed: 23, DisableSpeedEmulation: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	var ran atomic.Int64
	for i := 0; i < 32; i++ {
		rt.Spawn("x", func(ctx *Ctx) { ran.Add(1) })
	}
	rt.Wait()
	if ran.Load() != 32 {
		t.Fatalf("ran=%d", ran.Load())
	}
	if rt.Strategy() != s {
		t.Fatal("Strategy() must expose the caller's strategy")
	}
}

// TestOnePoolEveryKind: under each policy kind, a seeded spawn tree run
// through the Chase-Lev worker pools executes all 60 tasks, leaves every
// pool drained, counts exactly the executed tasks in Stats, and lands
// every leaf in the class registry. CI runs this package under -race, so
// the lock-free pools are exercised with the detector on.
func TestOnePoolEveryKind(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(string(kind), func(t *testing.T) {
			rt, err := New(Config{Arch: smallArch(), Policy: kind, Seed: 42, DisableSpeedEmulation: true})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Shutdown()
			var ran atomic.Int64
			// Deterministic spawn tree: 12 roots, each spawning a
			// class-dependent number of children, each child one leaf.
			for i := 0; i < 12; i++ {
				children := 1 + i%3
				class := fmt.Sprintf("c%d", i%3)
				rt.Spawn(class, func(ctx *Ctx) {
					ran.Add(1)
					for j := 0; j < children; j++ {
						ctx.Spawn(class+"_kid", func(ctx *Ctx) {
							ran.Add(1)
							ctx.Spawn("leaf", func(ctx *Ctx) { ran.Add(1) })
						})
					}
				})
			}
			rt.Wait()
			// 12 roots + sum(1+i%3) children ×2 (child+leaf) = 12 + 2*24 = 60.
			if got := ran.Load(); got != 60 {
				t.Fatalf("ran %d tasks, want 60", got)
			}
			if q := rt.nonEmptyPools(); q != 0 {
				t.Fatalf("%d pools not drained after Wait", q)
			}
			var statsRun int64
			for _, s := range rt.Stats() {
				statsRun += s.TasksRun
			}
			if statsRun != ran.Load() {
				t.Fatalf("stats count %d != executed %d", statsRun, ran.Load())
			}
			if c, ok := rt.Registry().Lookup("leaf"); !ok || c.Count != 24 {
				t.Fatalf("registry: %+v, want 24 leaves", c)
			}
		})
	}
}

// gaBatch mirrors the simulator's GA (α=8) batch mix of Fig. 8 on the
// live runtime with spin tasks: per batch 8×migrate(8u) + 8×evolve(4u) +
// 8×select(2u) + 104×eval(u) of fastest-core work.
func gaBatch(rt *Runtime, unit time.Duration) {
	for i := 0; i < 8; i++ {
		rt.Spawn("ga_migrate", func(ctx *Ctx) { spin(8 * unit) })
		rt.Spawn("ga_evolve", func(ctx *Ctx) { spin(4 * unit) })
		rt.Spawn("ga_select", func(ctx *Ctx) { spin(2 * unit) })
	}
	for i := 0; i < 104; i++ {
		rt.Spawn("ga_eval", func(ctx *Ctx) { spin(unit) })
	}
}

// TestLiveRankingWATSvsPFT mirrors the simulator's Fig. 6 assertion on
// real goroutines: on AMC2 with the GA workload, WATS's makespan must not
// exceed PFT's. Wall-clock measurements on a shared host are noisy, so
// the comparison gets a tolerance and up to three attempts.
func TestLiveRankingWATSvsPFT(t *testing.T) {
	const (
		unit     = time.Millisecond
		batches  = 3
		attempts = 3
		slack    = 1.15
	)
	run := func(kind sched.Kind) time.Duration {
		rt, err := New(Config{Arch: amc.AMC2, Policy: kind, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		for b := 0; b < batches; b++ {
			gaBatch(rt, unit)
			rt.Wait()
		}
		elapsed := time.Since(start)
		rt.Shutdown()
		return elapsed
	}
	var wats, pft time.Duration
	for i := 0; i < attempts; i++ {
		pft = run(sched.KindPFT)
		wats = run(sched.KindWATS)
		if float64(wats) <= float64(pft)*slack {
			return
		}
		t.Logf("attempt %d: WATS %v vs PFT %v, retrying", i+1, wats, pft)
	}
	t.Fatalf("WATS makespan %v exceeds PFT %v beyond tolerance ×%.2f", wats, pft, slack)
}

// TestHelperShutdownPrompt: Shutdown must not block until the next helper
// tick — the done channel stops the helper immediately even with a huge
// HelperPeriod.
func TestHelperShutdownPrompt(t *testing.T) {
	rt, err := New(Config{Arch: smallArch(), Policy: sched.KindWATS, Seed: 31,
		HelperPeriod: time.Hour, DisableSpeedEmulation: true})
	if err != nil {
		t.Fatal(err)
	}
	rt.Spawn("x", func(ctx *Ctx) {})
	rt.Wait()
	start := time.Now()
	rt.Shutdown()
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Shutdown took %v with HelperPeriod=1h", d)
	}
}

// TestNoHelperForStaticPolicies: policies without a reorganization step
// must not start a helper goroutine at all.
func TestNoHelperForStaticPolicies(t *testing.T) {
	for _, kind := range []sched.Kind{sched.KindCilk, sched.KindPFT, sched.KindShare} {
		rt, err := New(Config{Arch: smallArch(), Policy: kind, Seed: 33})
		if err != nil {
			t.Fatal(err)
		}
		if rt.helperDone != nil {
			t.Fatalf("%s: helper started for a policy with no reorganization step", kind)
		}
		rt.Shutdown()
	}
}

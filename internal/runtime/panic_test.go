package runtime

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"wats/internal/fault"
	"wats/internal/obs"
)

// jobHarness is one SpawnJob submission: a cause-carrying context plus a
// recorder for the abort callback, the way internal/server wires jobs.
type jobHarness struct {
	ctx    context.Context
	abort  context.CancelCauseFunc
	aborts atomic.Int64
}

func newJobHarness() *jobHarness {
	h := &jobHarness{}
	h.ctx, h.abort = context.WithCancelCause(context.Background())
	return h
}

func (h *jobHarness) abortFn(err error) {
	h.aborts.Add(1)
	h.abort(err)
}

// TestPanicIsolation: a panicking root task is recovered — the worker
// survives and keeps executing, accounting converges, the abort callback
// receives a *TaskPanicError, and the panic is visible in Stats, the
// tracer and Panics().
func TestPanicIsolation(t *testing.T) {
	arch := smallArch()
	tr := obs.NewTracer(arch.NumCores(), 256)
	rt, err := New(Config{Arch: arch, Seed: 11, DisableSpeedEmulation: true, Obs: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()

	h := newJobHarness()
	if err := rt.SpawnJob(h.ctx, h.abortFn, "boom", func(ctx *Ctx) {
		panic("kaboom")
	}); err != nil {
		t.Fatal(err)
	}
	rt.Wait() // must converge: the panicked task still counts as done

	if got := rt.Panics(); got != 1 {
		t.Fatalf("Panics() = %d, want 1", got)
	}
	if h.aborts.Load() != 1 {
		t.Fatalf("abort called %d times, want 1", h.aborts.Load())
	}
	var pe *TaskPanicError
	if cause := context.Cause(h.ctx); !errors.As(cause, &pe) {
		t.Fatalf("job cause = %v, want *TaskPanicError", cause)
	}
	if pe.Class != "boom" || pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Fatalf("panic error %+v lacks class/value/stack", pe)
	}

	// The worker that recovered the panic keeps running tasks.
	var ran atomic.Int64
	for i := 0; i < 50; i++ {
		rt.Spawn("after", func(ctx *Ctx) { ran.Add(1) })
	}
	rt.Wait()
	if ran.Load() != 50 {
		t.Fatalf("post-panic tasks ran %d/50", ran.Load())
	}

	var statPanics int64
	for _, ws := range rt.Stats() {
		statPanics += ws.Panics
	}
	if statPanics != 1 {
		t.Fatalf("WorkerStats panics sum %d, want 1", statPanics)
	}
	if c := tr.Counters(); c.Panics != 1 {
		t.Fatalf("tracer panics %d, want 1", c.Panics)
	}
	found := false
	for _, e := range tr.Events() {
		if e.Kind == obs.EvPanic && e.Class == "boom" {
			found = true
		}
	}
	if !found {
		t.Fatal("no EvPanic event in the trace")
	}
}

// TestPanicPoisonsSiblings: a panic in one child cancels the job, so
// queued siblings are retired at the cancellation points with exact
// accounting — Wait and Group.Wait converge, and Cancelled() shows the
// retirements.
func TestPanicPoisonsSiblings(t *testing.T) {
	rt, err := New(Config{Arch: smallArch(), Seed: 12, DisableSpeedEmulation: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()

	h := newJobHarness()
	var rootDone atomic.Bool
	if err := rt.SpawnJob(h.ctx, h.abortFn, "root", func(ctx *Ctx) {
		g := ctx.Group()
		for i := 0; i < 64; i++ {
			i := i
			g.Spawn(ctx, "leaf", func(c *Ctx) {
				if i == 0 {
					time.Sleep(time.Millisecond)
					panic("child down")
				}
				// Siblings poll the job context so the poison unblocks them.
				for j := 0; j < 500; j++ {
					if c.Err() != nil {
						return
					}
					time.Sleep(time.Millisecond)
				}
			})
		}
		g.Wait(ctx)
		rootDone.Store(true)
	}); err != nil {
		t.Fatal(err)
	}
	rt.Wait()

	if !rootDone.Load() {
		t.Fatal("root never returned from Group.Wait")
	}
	if rt.Panics() != 1 {
		t.Fatalf("Panics() = %d, want 1", rt.Panics())
	}
	var pe *TaskPanicError
	if !errors.As(context.Cause(h.ctx), &pe) {
		t.Fatalf("cause %v, want *TaskPanicError", context.Cause(h.ctx))
	}
	if rt.Cancelled() == 0 {
		t.Error("no queued siblings were retired after the poison")
	}
}

// TestInjectedPanics: a PanicRate-1 injector panics every task; every
// panic is recovered and counted, and the injector's count matches the
// runtime's exactly (the determinism chaos tests rely on).
func TestInjectedPanics(t *testing.T) {
	in := fault.New(fault.Spec{Seed: 42, PanicRate: 1})
	rt, err := New(Config{Arch: smallArch(), Seed: 13, DisableSpeedEmulation: true, Fault: in})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()

	const n = 40
	aborted := make([]*jobHarness, n)
	for i := range aborted {
		h := newJobHarness()
		aborted[i] = h
		if err := rt.SpawnJob(h.ctx, h.abortFn, "victim", func(ctx *Ctx) {
			t.Error("body ran despite injected panic")
		}); err != nil {
			t.Fatal(err)
		}
	}
	rt.Wait()

	if got := rt.Panics(); got != n {
		t.Fatalf("Panics() = %d, want %d", got, n)
	}
	if c := in.Counts(); c.Panics != n {
		t.Fatalf("injector counts %+v, want %d panics", c, n)
	}
	for i, h := range aborted {
		var pv fault.PanicValue
		var pe *TaskPanicError
		cause := context.Cause(h.ctx)
		if !errors.As(cause, &pe) || !errors.As(pe.Value.(error), &pv) {
			t.Fatalf("job %d cause %v, want TaskPanicError wrapping fault.PanicValue", i, cause)
		}
	}
}

// TestInjectedCancel: a CancelRate-1 injector aborts each job before its
// body runs; the body observes the cancelled context.
func TestInjectedCancel(t *testing.T) {
	in := fault.New(fault.Spec{Seed: 7, CancelRate: 1})
	rt, err := New(Config{Arch: smallArch(), Seed: 14, DisableSpeedEmulation: true, Fault: in})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()

	var sawCancelled atomic.Int64
	const n = 10
	for i := 0; i < n; i++ {
		h := newJobHarness()
		if err := rt.SpawnJob(h.ctx, h.abortFn, "c", func(ctx *Ctx) {
			if ctx.Err() != nil {
				sawCancelled.Add(1)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	rt.Wait()
	if sawCancelled.Load() != n {
		t.Fatalf("%d/%d bodies saw the injected cancellation", sawCancelled.Load(), n)
	}
	if c := in.Counts(); c.Cancels != n {
		t.Fatalf("injector counts %+v, want %d cancels", c, n)
	}
}

// TestInjectedDelay: a DelayRate-1 injector stalls the body by the
// configured delay.
func TestInjectedDelay(t *testing.T) {
	in := fault.New(fault.Spec{Seed: 3, DelayRate: 1, Delay: 10 * time.Millisecond})
	rt, err := New(Config{Arch: smallArch(), Seed: 15, DisableSpeedEmulation: true, Fault: in})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()

	start := time.Now()
	rt.Spawn("slow", func(ctx *Ctx) {})
	rt.Wait()
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("task finished in %v, injected delay is 10ms", elapsed)
	}
	if c := in.Counts(); c.Delays != 1 {
		t.Fatalf("injector counts %+v, want 1 delay", c)
	}
}

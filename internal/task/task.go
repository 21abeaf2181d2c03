// Package task defines the task model shared by the discrete-event
// simulator and the live runtime, together with the task-class statistics
// of the WATS paper (TC(f, n, w), Algorithm 2, Eq. 2).
//
// A Task carries a "function name" Class — the unit of history-based
// classification — and a ground-truth amount of work expressed in
// fastest-core time units (the time the task would take on a core of the
// fastest speed F1). The scheduler never reads Work directly: it only
// observes measured, Eq.2-normalized workloads of completed tasks.
//
// Tasks may contain spawn points: offsets (in own-work units) at which a
// child task is created. The engine executes the stretches between spawn
// points ("segments") and applies the configured spawn discipline
// (parent-first or child-first) at each spawn point, which is what lets
// the simulator distinguish MIT Cilk's work-first policy from the
// parent-first policy WATS requires for correct workload measurement.
package task

import (
	"cmp"
	"fmt"
	"slices"
)

// State enumerates the lifecycle of a task inside an engine run.
type State int8

const (
	// Created means the task exists but has not been enqueued yet.
	Created State = iota
	// Queued means the task sits in some pool awaiting execution.
	Queued
	// Running means a core is currently executing the task.
	Running
	// Suspended means the task hit a spawn point under the child-first
	// discipline and its continuation is queued or inline on a core.
	Suspended
	// Done means the task has completed all of its work.
	Done
)

func (s State) String() string {
	switch s {
	case Created:
		return "created"
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Suspended:
		return "suspended"
	case Done:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Spawn is a spawn point: when the owning task has executed At units of its
// own work, Child is spawned.
type Spawn struct {
	// At is the offset into the parent's own work, in fastest-core time
	// units, at which the child is created. Must lie in [0, Work].
	At float64
	// Child is the task to spawn. Its own spawn points nest arbitrarily.
	Child *Task
}

// Task is one schedulable unit of work.
type Task struct {
	// ID is unique within one engine run.
	ID int
	// Class is the "function name" used for history-based classification.
	Class string
	// Work is the ground-truth CPU demand in fastest-core time units.
	// Only the workload generator and the metrics code read it; scheduling
	// policies must not.
	Work float64
	// Spawns lists this task's spawn points sorted ascending by At.
	Spawns []Spawn
	// OnComplete, if non-nil, runs when the task finishes. Pipeline
	// workloads use it to inject the next-stage task. It must not block.
	OnComplete func(t *Task)
	// Main marks the program's main task (a batch's root spawner): the
	// runtime executes it on the fastest core (§IV-E: "WATS schedules
	// the main task of a parallel program on the fastest core... we make
	// all other schedulers launch the main task on the fastest core").
	Main bool
	// MemFrac is the fraction of the task's Work that is memory-stall
	// time (§IV-E extension). Stalls do not speed up on fast cores: on a
	// core of relative speed rel the task's execution time is
	// Work*(1-MemFrac)/rel + Work*MemFrac. Zero for pure CPU-bound tasks.
	MemFrac float64
	// CMPI is the task's cache-misses-per-instruction figure reported by
	// the virtual performance counters (0 for pure CPU-bound tasks); the
	// memory-aware WATS variant classifies classes by it (§IV-E).
	CMPI float64

	// --- engine-owned state ---

	// Done_ is how much of Work has been executed.
	Done_ float64
	// NextSpawn indexes the first spawn point not yet taken.
	NextSpawn int
	// State is the current lifecycle state.
	State State
	// Measured is the Eq.2-normalized workload observed so far by the
	// performance counters: elapsed virtual time on speed Fi contributes
	// elapsed*Fi/F1. Under child-first spawning this also accrues the
	// cycles of descendants executed inline, reproducing the
	// mis-measurement that motivates WATS's parent-first choice (§III-C).
	Measured float64
	// StartT and EndT are virtual times of first dispatch and completion.
	StartT, EndT float64
	// LastCore is the core that last executed (or is executing) the task.
	LastCore int
	// Parent points to the spawning task, nil for root tasks.
	Parent *Task
	// Depth is the spawn-tree depth (roots are 0).
	Depth int
}

// Remaining returns the task's unexecuted own work in fastest-core units.
func (t *Task) Remaining() float64 { return t.Work - t.Done_ }

// NextStop returns the own-work offset at which execution must pause next:
// the next spawn point, or the end of the task.
func (t *Task) NextStop() float64 {
	if t.NextSpawn < len(t.Spawns) {
		return t.Spawns[t.NextSpawn].At
	}
	return t.Work
}

// SortSpawns sorts the spawn points ascending by offset and clamps them
// into [0, Work]. Generators call it once after construction.
func (t *Task) SortSpawns() {
	for i := range t.Spawns {
		if t.Spawns[i].At < 0 {
			t.Spawns[i].At = 0
		}
		if t.Spawns[i].At > t.Work {
			t.Spawns[i].At = t.Work
		}
	}
	slices.SortStableFunc(t.Spawns, func(a, b Spawn) int { return cmp.Compare(a.At, b.At) })
}

// TotalWork returns the task's own work plus that of all descendants
// reachable through spawn points. Pipeline successors created by
// OnComplete hooks are not included (they do not exist yet).
func (t *Task) TotalWork() float64 {
	w := t.Work
	for _, s := range t.Spawns {
		w += s.Child.TotalWork()
	}
	return w
}

// CountTasks returns 1 plus the number of descendants via spawn points.
func (t *Task) CountTasks() int {
	n := 1
	for _, s := range t.Spawns {
		n += s.Child.CountTasks()
	}
	return n
}

// Validate checks structural invariants of the task tree: non-negative
// work, spawn offsets within range and sorted, no nil children, and no
// cycles. It returns the first violation found.
func (t *Task) Validate() error {
	seen := map[*Task]bool{}
	var walk func(u *Task) error
	walk = func(u *Task) error {
		if u == nil {
			return fmt.Errorf("task: nil task in spawn tree")
		}
		if seen[u] {
			return fmt.Errorf("task %d (%s): cycle in spawn tree", u.ID, u.Class)
		}
		seen[u] = true
		if u.Work < 0 {
			return fmt.Errorf("task %d (%s): negative work %v", u.ID, u.Class, u.Work)
		}
		prev := 0.0
		for i, s := range u.Spawns {
			if s.Child == nil {
				return fmt.Errorf("task %d (%s): spawn %d has nil child", u.ID, u.Class, i)
			}
			if s.At < prev {
				return fmt.Errorf("task %d (%s): spawn offsets not sorted at %d", u.ID, u.Class, i)
			}
			if s.At > u.Work {
				return fmt.Errorf("task %d (%s): spawn offset %v beyond work %v", u.ID, u.Class, s.At, u.Work)
			}
			prev = s.At
			if err := walk(s.Child); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t)
}

// New returns a leaf task with the given class and work.
func New(class string, work float64) *Task {
	return &Task{Class: class, Work: work}
}

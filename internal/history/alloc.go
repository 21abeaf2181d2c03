// Package history implements the history-based task allocation of the WATS
// paper (§III-A): the greedy near-optimal static partition of Algorithm 1,
// the task-class-to-cluster mapping built from the statistics collected by
// Algorithm 2 (package task), and the per-c-group preference lists of the
// preference-based task-stealing policy (§III-B, Fig. 4, Table I).
//
// Its tests bound Algorithm 1's quality with two reference allocators kept
// in alloc_test.go: an exact branch-and-bound solver for the fluid
// grouped-machines model, and the classic LPT greedy heuristic.
package history

import (
	"slices"

	"wats/internal/amc"
)

// Partition implements Algorithm 1 of the paper: given item weights w
// (the items must already be sorted in the order Algorithm 1 expects —
// descending workload) and an architecture with k c-groups of capacities
// Fi*Ni, it returns the k-1 cut points p such that group i receives the
// contiguous slice w[p[i-1]:p[i]] (p[-1]=0, p[k-1]=len(w) implied).
//
// The greedy rule is verbatim from the paper's pseudocode: accumulate
// items into the current group while the group's total stays within its
// proportional share TL*Fi*Ni; the first overflowing item starts the next
// group. The last group absorbs any remainder.
//
// Note a consequence the paper does not spell out: because every group is
// cut at ≤ its share, the under-fill of all k-1 leading groups accumulates
// on the last (slowest) group — with coarse class weights the slowest
// c-group can end up far above TL. The paper's stated objective
// ("keep max(|Σw/cap − TL|, ...) as small as possible", §II-C) is better
// served by PartitionAnchored, the Allocator's default; the literal rule
// is kept for the partition-rule ablation (UseLiteralPartition), where
// the preference-based stealing's "rob the weaker first" order is
// precisely what rescues its slow-group surplus.
func Partition(w []float64, arch *amc.Arch) []int {
	return literalCuts(make([]int, 0, arch.K()-1), w, arch)
}

// cutRule is a partition rule writing into caller-owned storage: it
// builds the k-1 cut points in buf[:0] (growing it if needed) and returns
// them, so the Allocator can run it every helper tick with one retained
// buffer.
type cutRule func(buf []int, w []float64, arch *amc.Arch) []int

func literalCuts(buf []int, w []float64, arch *amc.Arch) []int {
	cuts := buf[:0]
	k := arch.K()
	if k == 1 {
		return cuts
	}
	tl := arch.LowerBound(w)
	acc := 0.0
	j := 0 // current c-group (0-based; paper's j-1)
	for i := 0; i < len(w) && j < k-1; i++ {
		acc += w[i]
		if acc > tl*arch.Groups[j].Capacity() {
			// Item i overflows group j: group j ends before item i.
			cuts = append(cuts, i)
			j++
			acc = w[i]
		}
	}
	// Groups that never overflowed (or ran out of items) end at len(w).
	for len(cuts) < k-1 {
		cuts = append(cuts, len(w))
	}
	return cuts
}

// PartitionAnchored cuts each group at the largest prefix whose cumulative
// weight stays within the group's *global* cumulative share
// TL*(cap_1+...+cap_j). Unlike the literal Algorithm 1, a group's
// under-fill does not inflate the next group's allowance (no cascade), so
// the slowest group's surplus stays bounded by one class weight per
// boundary, and faster groups are never loaded beyond their share, so
// any surplus flows toward slower c-groups — where it consists of the
// smallest classes, exactly the tasks the "rob the weaker first"
// preference stealing redistributes most cheaply.
// This is the default cut rule of the Allocator.
func PartitionAnchored(w []float64, arch *amc.Arch) []int {
	return anchoredCuts(make([]int, 0, arch.K()-1), w, arch)
}

func anchoredCuts(buf []int, w []float64, arch *amc.Arch) []int {
	cuts := buf[:0]
	k := arch.K()
	if k == 1 {
		return cuts
	}
	tl := arch.LowerBound(w)
	cumCap := 0.0
	p := 0
	prefix := 0.0 // sum of w[:p], accumulated left to right
	for j := 0; j < k-1; j++ {
		cumCap += arch.Groups[j].Capacity()
		boundary := tl * cumCap
		before := p
		for p < len(w) && prefix+w[p] <= boundary*(1+1e-12) {
			prefix += w[p]
			p++
		}
		// Never leave a prefix group empty while classes remain: a class
		// too big for the group's share still finishes soonest on the
		// fastest group that will take it (w/cap decreases with cap), and
		// an empty fast group would push a dominant class toward the
		// slowest cores — the worst possible atomic assignment.
		if p == before && p < len(w) {
			prefix += w[p]
			p++
		}
		cuts = append(cuts, p)
	}
	return cuts
}

// AssignmentFromCuts expands cut points into a per-item group index.
func AssignmentFromCuts(m int, cuts []int) []int {
	return assignmentInto(nil, m, cuts)
}

// assignmentInto is AssignmentFromCuts building in buf's storage; every
// one of the m entries is written.
func assignmentInto(buf []int, m int, cuts []int) []int {
	assign := slices.Grow(buf[:0], m)[:m]
	g, prev := 0, 0
	for _, c := range cuts {
		for i := prev; i < c && i < m; i++ {
			assign[i] = g
		}
		prev = c
		g++
	}
	for i := prev; i < m; i++ {
		assign[i] = g
	}
	return assign
}

package wats_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"wats"
)

// simulateGolden holds one SHA-256 per (architecture, scheduler) over the
// complete numeric outcome of the nine Table III benchmarks at seed 1.
// The digests were generated before the event queue and the helper
// repartition were rewritten for speed: the simulator's contract is that
// events are totally ordered by (at, seq), so any queue implementation
// and any amount of scratch reuse must reproduce them byte for byte. A
// mismatch means a simulated outcome changed — results_full.txt and
// EXPERIMENTS.md are then stale — and is never fixed by editing a digest
// alongside a performance change.
var simulateGolden = map[string]string{
	"AMC 1/Cilk":    "0ccf140f8861310276870f8a09c7e6e4f93ae97955dbec343a136e366bc4eea5",
	"AMC 1/PFT":     "1f76e185906fa1b66c1da4eaa440b32d00b725edca1dbca3d0b860aca6305e24",
	"AMC 1/RTS":     "8a86dff4c8eaa6659b1417630af6a32b23dc1963a8fa67d593488ff6130e71ad",
	"AMC 1/WATS":    "2cd43d036abdc1d50aaf05e2c76c96f079feb0ee06ab500485b1047c41bb6b8a",
	"AMC 1/WATS-TS": "b719d3f920b5ce6937cd6bddf2ce404b4b97337b141098115c9e39cac483d578",
	"AMC 2/Cilk":    "e4123e8cfa4e5639a5b96f6b0a700cf607d2672a572e2cb57fdfb6c123ec9d54",
	"AMC 2/PFT":     "632a1113a668d55e9f6ce281c97b9b8d73eb9a29523fc64167d8809274f10c2b",
	"AMC 2/RTS":     "85f94716d558c80e57cf7a5904f16999d16d0de2f49a63d6185874367d623570",
	"AMC 2/WATS":    "6db3d5ff0e2455f96b7c31bb63c27864c45d9ca2338c3a72904063d95edec69f",
	"AMC 2/WATS-TS": "f4a1ab56db095f4e5f103ab008718ac8bb05382f148d5e84b6aaa1484b7bb615",
	"AMC 5/Cilk":    "5b6ce7564aac6f54578df022fc3af36653024c22fb1360386c1ef5d331bc8e9c",
	"AMC 5/PFT":     "d9bf88777b9877b735303949001d26f1c774d3876d06e41c1f9c0a3393a814a0",
	"AMC 5/RTS":     "375d354d70eb4e4b8a37c549775f109e9e559143a66bc58db33b7383151d4bbc",
	"AMC 5/WATS":    "7313c62d0f488ead901cd78c209d40edb53d8d44b8f35abd96a895827dfea7da",
	"AMC 5/WATS-TS": "71bdcc920031db7c4219df6a9a52d3eae329473b41d1b507e83fe244ddd52fb6",
}

func hashFloat(h hash.Hash, v float64) { hashInt(h, int64(math.Float64bits(v))) }

func hashInt(h hash.Hash, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

// hashResult folds every number a run reports into h, floats by bit
// pattern.
func hashResult(h hash.Hash, r *wats.Result) {
	hashFloat(h, r.Makespan)
	hashFloat(h, r.TotalWork)
	hashFloat(h, r.LowerBound)
	hashFloat(h, r.EnergyJoules)
	hashInt(h, int64(len(r.QuiescentTimes)))
	for _, q := range r.QuiescentTimes {
		hashFloat(h, q)
	}
	for _, n := range []int{r.TasksDone, r.Steals, r.Snatches, r.HelperTicks, len(r.Cores)} {
		hashInt(h, int64(n))
	}
	for _, c := range r.Cores {
		hashFloat(h, c.Busy)
		hashFloat(h, c.Overhead)
		for _, n := range []int{c.Steals, c.LocalPops, c.Snatches, c.SnatchedFrom, c.TasksRun} {
			hashInt(h, int64(n))
		}
	}
}

// TestSimulateGolden proves simulated outcomes bit-identical to the
// digests above on {AMC1, AMC2, AMC5} × five schedulers × the nine
// benchmarks.
func TestSimulateGolden(t *testing.T) {
	for _, arch := range []*wats.Arch{wats.AMC1, wats.AMC2, wats.AMC5} {
		for _, kind := range []wats.Kind{wats.Cilk, wats.PFT, wats.RTS, wats.WATS, wats.WATSTS} {
			h := sha256.New()
			for _, w := range wats.Benchmarks(1) {
				res, err := wats.Simulate(arch, kind, w, wats.Config{Seed: 1})
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", arch.Name, kind, w.Name(), err)
				}
				hashResult(h, res)
			}
			key := arch.Name + "/" + string(kind)
			if got := hex.EncodeToString(h.Sum(nil)); got != simulateGolden[key] {
				t.Errorf("%s: digest %s, want %s", key, got, simulateGolden[key])
			}
		}
	}
}

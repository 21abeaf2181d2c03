package fault

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"testing"
)

// taskPlanGolden is one SHA-256 over every Action Plan returns on a
// seeded grid — taskGoldenSpecs × goldenSeeds × goldenNames × workers
// 0–4 and 63 × indices 0–128 — each (spec, seed) block followed by the
// injector's task counts. netPlanGolden is one over every NetAction
// PlanNet returns on netGoldenSpecs × goldenSeeds × goldenNames × indices
// 0–128 then, for each spec without a flap window, the first 64 actions
// Next assigns on every name and the injector's network counts and
// Assigned. Both were recorded on two separate planners, each with its own
// key derivation, before they were merged into this package: the schedule
// a seed names is the contract chaos tests count against, so a refactor
// reproduces it and a mismatch is never fixed by editing a digest.
const (
	taskPlanGolden = "1de4e7db84301a84aa554c475380b407598f8e8f98047c73d7f0b88ef222c1ad"
	netPlanGolden  = "bb273a9ac8604f260c718cc7054abfdc98382ada93b87e5c669bb8d7fc7f7768"
)

var (
	goldenSeeds = []uint64{0, 1, 42, 0xDEADBEEFCAFEF00D, ^uint64(0)}
	goldenNames = []string{"", "a", "sha1", "bzip2", "mix", "work", "serve", "b0"}

	// taskGoldenSpecs include the partition edges: rates that sum to
	// exactly 1, a single kind at rate 1, and a rate too small to fire.
	taskGoldenSpecs = []string{
		"",
		"panic=1",
		"cancel=1",
		"delay=1:3ms",
		"panic=0.5,delay=0.5",
		"panic=0.25,delay=0.25:7ms,cancel=0.5",
		"panic=0.2,cancel=0.8",
		"panic=0.01,delay=0.05:2ms,cancel=0.01",
		"panic=1e-9",
	}

	// netGoldenSpecs include the partition edges: reset and blackhole
	// summing to exactly 1, each terminal kind at rate 1, both
	// independent draws at rate 1, and a rate too small to fire.
	netGoldenSpecs = []string{
		"",
		"reset=1",
		"blackhole=1",
		"reset=0.5,blackhole=0.5",
		"latency=1:1ms,drip=1:1ms:1",
		"latency=0.3:5ms,drip=0.2:1ms:8,reset=0.1,blackhole=0.1",
		"latency=0.25:10ms,drip=1:75ms:32,reset=0.1,blackhole=0.1,flap=1s:2s",
		"drip=0.5",
		"latency=1e-9:1ms",
	}
)

func putUint64(h io.Writer, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

func putAction(h io.Writer, a NetAction) {
	var flags uint64
	for i, on := range []bool{a.Drip, a.Reset, a.Blackhole} {
		if on {
			flags |= 1 << i
		}
	}
	putUint64(h, uint64(a.Latency), flags)
}

// TestTaskPlanGolden proves the task schedule byte-identical to the
// digest above.
func TestTaskPlanGolden(t *testing.T) {
	h := sha256.New()
	for _, s := range taskGoldenSpecs {
		for _, seed := range goldenSeeds {
			spec, err := ParseSpec(s, seed)
			if err != nil {
				t.Fatalf("ParseSpec(%q): %v", s, err)
			}
			in := New(spec)
			for _, name := range goldenNames {
				for _, w := range []int{0, 1, 2, 3, 4, 63} {
					for i := uint64(0); i <= 128; i++ {
						a := in.Plan(name, w, i)
						putUint64(h, uint64(a.Kind), uint64(a.Delay))
					}
				}
			}
			c := in.Counts()
			putUint64(h, uint64(c.Panics), uint64(c.Delays), uint64(c.Cancels))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != taskPlanGolden {
		t.Errorf("task plan digest %s, want %s", got, taskPlanGolden)
	}
}

// TestNetPlanGolden proves the network schedule byte-identical to the
// digest above.
func TestNetPlanGolden(t *testing.T) {
	h := sha256.New()
	for _, s := range netGoldenSpecs {
		for _, seed := range goldenSeeds {
			spec, err := ParseSpec(s, seed)
			if err != nil {
				t.Fatalf("ParseSpec(%q): %v", s, err)
			}
			in := New(spec)
			for _, name := range goldenNames {
				for i := uint64(0); i <= 128; i++ {
					putAction(h, in.PlanNet(name, i))
				}
			}
			if spec.FlapDur > 0 {
				continue // Next depends on the clock inside a flap window
			}
			for _, name := range goldenNames {
				for i := 0; i < 64; i++ {
					putAction(h, in.Next(name))
				}
				putUint64(h, in.Assigned(name))
			}
			c := in.Counts()
			putUint64(h, uint64(c.Latencies), uint64(c.Drips), uint64(c.Resets), uint64(c.Blackholes))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != netPlanGolden {
		t.Errorf("network plan digest %s, want %s", got, netPlanGolden)
	}
}

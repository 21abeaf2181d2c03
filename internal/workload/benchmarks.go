package workload

import (
	"fmt"

	"wats/internal/sim"
)

// The nine benchmarks of Table III. Batch mixes are expressed in the
// paper's abstract unit t (BaseT seconds); counts are per 128-task batch.
//
// Calibration notes (see DESIGN.md §3): each benchmark is modeled by its
// task-class mix — which function names exist, how many tasks of each run
// per batch, and their relative CPU demands. Mixes were chosen so that
//
//   - within a class, workloads are similar (paper assumption 1);
//   - class-count proportions are stable across batches (assumption 2);
//   - heavy classes are few and heavy (8–16t) while light classes are
//     plentiful, which is what makes random stealing lose on AMC: a heavy
//     task started late on a 0.8 GHz core adds ~w/0.32 to the makespan;
//   - cumulative class weights are graded finely enough that Algorithm 1's
//     contiguous greedy partition lands near the proportional shares of
//     the Table II architectures (the paper's Fig. 9 shows the static
//     allocation alone — WATS-NP — already beats random stealing).
//
// SHA-1 is the most size-skewed benchmark (the paper's best case: −82.7%
// vs Cilk); Ferret's stages are uniform, so WATS is neutral there and only
// its bookkeeping overhead shows (≤4.7% worst case in Fig. 6a).

// GAAlphaMix returns the Fig. 8 GA batch mix: 128 tasks per batch with
// workloads 8t, 4t, 2t, t in counts α, α, α, 128−3α. The paper's x-axis
// runs to α=44, where 128−3α goes negative; the light-task count is
// clamped at zero there (the batch then has 3α=132 tasks).
func GAAlphaMix(alpha int, t float64) ([]ClassSpec, error) {
	if alpha < 0 || alpha > 44 {
		return nil, fmt.Errorf("workload: alpha=%d out of range [0,44]", alpha)
	}
	light := 128 - 3*alpha
	if light < 0 {
		light = 0
	}
	return []ClassSpec{
		{Name: "ga_migrate", Count: alpha, Work: 8 * t},
		{Name: "ga_evolve", Count: alpha, Work: 4 * t},
		{Name: "ga_select", Count: alpha, Work: 2 * t},
		{Name: "ga_eval", Count: light, Work: t},
	}, nil
}

// GA returns the island-model Genetic Algorithm workload used for
// Figs. 6, 7 and 9: islands of graded population sizes yield ten task
// classes from heavy migration/crossover work down to cheap statistics.
func GA(seed uint64) *Batch { return ga(new(Batch), nil, seed) }

func ga(b *Batch, mix []ClassSpec, seed uint64) *Batch {
	t := BaseT
	*b = Batch{BenchName: "GA", Seed: seed, Mix: append(mix,
		ClassSpec{Name: "ga_migrate", Count: 3, Work: 12 * t},
		ClassSpec{Name: "ga_cross_l", Count: 3, Work: 9 * t},
		ClassSpec{Name: "ga_cross_m", Count: 4, Work: 7 * t},
		ClassSpec{Name: "ga_mut_l", Count: 5, Work: 5.5 * t},
		ClassSpec{Name: "ga_mut_m", Count: 7, Work: 4 * t},
		ClassSpec{Name: "ga_select", Count: 10, Work: 2.8 * t},
		ClassSpec{Name: "ga_eval_l", Count: 13, Work: 2 * t},
		ClassSpec{Name: "ga_eval_m", Count: 22, Work: 1.3 * t},
		ClassSpec{Name: "ga_eval_s", Count: 28, Work: 0.9 * t},
		ClassSpec{Name: "ga_stats", Count: 33, Work: 0.75 * t},
	)}
	return b
}

// GAAlpha returns the Fig. 8 workload for a specific α.
func GAAlpha(alpha int, seed uint64) (*Batch, error) {
	mix, err := GAAlphaMix(alpha, BaseT)
	if err != nil {
		return nil, err
	}
	return &Batch{BenchName: fmt.Sprintf("GA(a=%d)", alpha), Mix: mix, Seed: seed}, nil
}

// BWT returns the Burrows-Wheeler Transform workload: suffix sorting of
// large blocks dominates; move-to-front and run-length passes are light.
func BWT(seed uint64) *Batch { return bwt(new(Batch), nil, seed) }

func bwt(b *Batch, mix []ClassSpec, seed uint64) *Batch {
	t := BaseT
	*b = Batch{BenchName: "BWT", Seed: seed, Mix: append(mix,
		ClassSpec{Name: "bwt_sort", Count: 6, Work: 8 * t},
		ClassSpec{Name: "bwt_sais", Count: 8, Work: 5 * t},
		ClassSpec{Name: "bwt_mtf", Count: 14, Work: 3 * t},
		ClassSpec{Name: "bwt_rle", Count: 50, Work: 1.2 * t},
		ClassSpec{Name: "bwt_emit", Count: 50, Work: 0.6 * t},
	)}
	return b
}

// Bzip2 returns the Bzip2-like compression workload: expensive Huffman
// table construction and block sorting, cheap RLE and CRC passes.
func Bzip2(seed uint64) *Batch { return bzip2(new(Batch), nil, seed) }

func bzip2(b *Batch, mix []ClassSpec, seed uint64) *Batch {
	t := BaseT
	*b = Batch{BenchName: "Bzip-2", Seed: seed, Mix: append(mix,
		ClassSpec{Name: "bz_huffman", Count: 6, Work: 10 * t},
		ClassSpec{Name: "bz_sort", Count: 10, Work: 6 * t},
		ClassSpec{Name: "bz_mtf", Count: 20, Work: 3 * t},
		ClassSpec{Name: "bz_rle", Count: 40, Work: 1.2 * t},
		ClassSpec{Name: "bz_crc", Count: 52, Work: 0.5 * t},
	)}
	return b
}

// DMC returns the Dynamic Markov Coding workload.
func DMC(seed uint64) *Batch { return dmc(new(Batch), nil, seed) }

func dmc(b *Batch, mix []ClassSpec, seed uint64) *Batch {
	t := BaseT
	*b = Batch{BenchName: "DMC", Seed: seed, Mix: append(mix,
		ClassSpec{Name: "dmc_model", Count: 8, Work: 6 * t},
		ClassSpec{Name: "dmc_tree", Count: 12, Work: 4 * t},
		ClassSpec{Name: "dmc_encode", Count: 28, Work: 2 * t},
		ClassSpec{Name: "dmc_predict", Count: 36, Work: 1 * t},
		ClassSpec{Name: "dmc_flush", Count: 44, Work: 0.4 * t},
	)}
	return b
}

// LZW returns the Lempel-Ziv-Welch workload.
func LZW(seed uint64) *Batch { return lzw(new(Batch), nil, seed) }

func lzw(b *Batch, mix []ClassSpec, seed uint64) *Batch {
	t := BaseT
	*b = Batch{BenchName: "LZW", Seed: seed, Mix: append(mix,
		ClassSpec{Name: "lzw_dict", Count: 6, Work: 9 * t},
		ClassSpec{Name: "lzw_block", Count: 10, Work: 5 * t},
		ClassSpec{Name: "lzw_encode", Count: 24, Work: 2.5 * t},
		ClassSpec{Name: "lzw_probe", Count: 40, Work: 1 * t},
		ClassSpec{Name: "lzw_emit", Count: 48, Work: 0.5 * t},
	)}
	return b
}

// MD5 returns the Message Digest workload: message lengths are heavy-
// tailed, so per-task costs span a 30× range.
func MD5(seed uint64) *Batch { return md5(new(Batch), nil, seed) }

func md5(b *Batch, mix []ClassSpec, seed uint64) *Batch {
	t := BaseT
	*b = Batch{BenchName: "MD5", Seed: seed, Mix: append(mix,
		ClassSpec{Name: "md5_huge", Count: 4, Work: 12 * t},
		ClassSpec{Name: "md5_large", Count: 8, Work: 6 * t},
		ClassSpec{Name: "md5_medium", Count: 24, Work: 2.5 * t},
		ClassSpec{Name: "md5_small", Count: 44, Work: 1 * t},
		ClassSpec{Name: "md5_tiny", Count: 48, Work: 0.4 * t},
	)}
	return b
}

// SHA1 returns the SHA-1 workload, the most size-skewed benchmark (WATS's
// best case in Fig. 6: up to −82.7% vs Cilk): a handful of whole-archive digests
// (17× the chunk size) next to a swarm of tiny chunk hashes, spawned
// leaf-chunks-first as tree hashing does. Random stealing strands archives
// on 0.8 GHz cores every batch; WATS pins them to the fast c-groups, and
// the class-weight ladder (26/19/13/42%) tracks the c-group capacity
// shares of the Table II architectures.
func SHA1(seed uint64) *Batch { return sha1(new(Batch), nil, seed) }

func sha1(b *Batch, mix []ClassSpec, seed uint64) *Batch {
	t := BaseT
	*b = Batch{BenchName: "SHA-1", Seed: seed, Order: OrderLightFirst, Mix: append(mix,
		ClassSpec{Name: "sha_iso", Count: 4, Work: 8 * t},
		ClassSpec{Name: "sha_tar", Count: 3, Work: 8 * t},
		ClassSpec{Name: "sha_file", Count: 8, Work: 2 * t},
		ClassSpec{Name: "sha_chunk", Count: 113, Work: 0.46 * t},
	)}
	return b
}

// Dedup returns the PARSEC Dedup workload at chunk-task granularity: each
// input buffer (one wave = one batch) splits into chunks whose work units
// differ sharply — unique chunks pay SHA-1 plus Ziv-Lempel compression
// (large chunks costing more than small ones), duplicate chunks pay the
// hash only, and sub-fragment bookkeeping is nearly free. The serial read
// and reorder stages ride in the root task, which the runtime schedules
// on the fastest core (§IV-E). The per-class cost spread is what random
// stealing mishandles on AMC.
func Dedup(seed uint64) *Batch { return dedup(new(Batch), nil, seed) }

func dedup(b *Batch, mix []ClassSpec, seed uint64) *Batch {
	t := BaseT
	*b = Batch{BenchName: "Dedup", Seed: seed, Noise: 0.25, Mix: append(mix,
		ClassSpec{Name: "dedup_unique_l", Count: 8, Work: 8 * t},
		ClassSpec{Name: "dedup_unique_m", Count: 10, Work: 4.5 * t},
		ClassSpec{Name: "dedup_unique_s", Count: 14, Work: 2.5 * t},
		ClassSpec{Name: "dedup_dup", Count: 80, Work: 1.2 * t},
		ClassSpec{Name: "dedup_frag", Count: 16, Work: 0.55 * t},
	)}
	return b
}

// Ferret returns the PARSEC Ferret similarity-search pipeline. Its tasks
// "have similar workloads", so WATS's allocation is neutral and only its
// bookkeeping overhead shows (Fig. 6a: ≤4.7% slowdown worst case).
func Ferret(seed uint64) *Pipeline { return ferret(new(Pipeline), nil, seed) }

func ferret(p *Pipeline, stages []StageSpec, seed uint64) *Pipeline {
	t := BaseT
	*p = Pipeline{
		BenchName: "Ferret",
		Seed:      seed,
		SizeCV:    0.03,
		WaveItems: 64,
		Waves:     8,
		Stages: append(stages,
			StageSpec{Name: "ferret_segment", Work: 1.5 * t},
			StageSpec{Name: "ferret_extract", Work: 1.6 * t},
			StageSpec{Name: "ferret_index", Work: 1.4 * t},
			StageSpec{Name: "ferret_rank", Work: 1.5 * t},
		),
	}
	return p
}

// benchSlab is the storage of one Benchmarks call: the nine workloads,
// their class mixes and the returned slice share one allocation. A grid
// builds fresh workloads for every simulated run, so their construction
// is on the measured path of every experiment.
type benchSlab struct {
	batches [8]Batch // figure order, without Ferret
	ferret  Pipeline
	specs   [44]ClassSpec // the batches' mixes, back to back in the same order
	stages  [4]StageSpec
	all     [9]sim.Workload
}

// tableIII is the slab every Benchmarks call starts from as a copy: the
// constructors above run once here, so their literals stay the only
// statement of the Table III mixes. Never handed out, never started.
var tableIII = func() *benchSlab {
	s := new(benchSlab)
	mix := s.specs[:0]
	for i, build := range [...]func(*Batch, []ClassSpec, uint64) *Batch{bwt, bzip2, dedup, dmc, ga, lzw, md5, sha1} {
		mix = build(&s.batches[i], mix[len(mix):], 0).Mix
	}
	// A mix that outgrew its room was reallocated off the slab by append,
	// and so was every mix after it.
	if &mix[len(mix)-1] != &s.specs[len(s.specs)-1] {
		panic("workload: the Table III mixes no longer fill benchSlab.specs exactly")
	}
	ferret(&s.ferret, s.stages[:0], 0)
	return s
}()

// Benchmarks returns the nine Table III workloads in the paper's figure
// order (BWT, Bzip-2, Dedup, DMC, Ferret, GA, LZW, MD5, SHA-1). Every call
// returns fresh state: no memory is shared between two calls' workloads.
func Benchmarks(seed uint64) []sim.Workload {
	s := new(benchSlab)
	*s = *tableIII
	// The copy still points into tableIII: give each workload its window
	// of this slab's specs, capped so that an append to one Mix
	// reallocates instead of overwriting the next workload's classes.
	off := 0
	for i := range s.batches {
		b := &s.batches[i]
		end := off + len(b.Mix)
		b.Mix, b.Seed = s.specs[off:end:end], seed
		off = end
		if i < 4 {
			s.all[i] = b
		} else {
			s.all[i+1] = b // Ferret is fifth in figure order
		}
	}
	s.ferret.Stages, s.ferret.Seed = s.stages[:], seed
	s.all[4] = &s.ferret
	return s.all[:]
}

// BenchmarkNames lists the Table III benchmark names in figure order.
var BenchmarkNames = []string{
	"BWT", "Bzip-2", "Dedup", "DMC", "Ferret", "GA", "LZW", "MD5", "SHA-1",
}

// ByName builds the named benchmark workload, or nil if unknown.
func ByName(name string, seed uint64) sim.Workload {
	switch name {
	case "BWT":
		return BWT(seed)
	case "Bzip-2", "Bzip2":
		return Bzip2(seed)
	case "Dedup":
		return Dedup(seed)
	case "DMC":
		return DMC(seed)
	case "Ferret":
		return Ferret(seed)
	case "GA":
		return GA(seed)
	case "LZW":
		return LZW(seed)
	case "MD5":
		return MD5(seed)
	case "SHA-1", "SHA1":
		return SHA1(seed)
	default:
		return nil
	}
}

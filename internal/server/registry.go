package server

import (
	"fmt"
	"sync"

	"wats/internal/kernels"
	"wats/internal/runtime"
)

// Params are the per-job knobs a submission may set; zero values take
// workload-specific defaults. One flat struct keeps the wire format
// trivial (no per-workload schemas) — workloads read the knobs they care
// about and ignore the rest.
type Params struct {
	// Size is the input size in bytes (digest/compression workloads) or
	// the per-island population (ga).
	Size int `json:"size,omitempty"`
	// Seed makes the pseudo-random input deterministic (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// N is the fan-out: how many child tasks the job spawns (workloads
	// with inner parallelism) or how many items it processes.
	N int `json:"n,omitempty"`
	// Generations is the GA generation count.
	Generations int `json:"generations,omitempty"`
}

// Submission caps. Workload cost grows with these knobs (BWT is linear
// in Size but holds about 16 bytes per input byte, mix spawns N tasks),
// so unbounded values are a resource-exhaustion vector from
// unauthenticated input: one request with size=1<<40 would wedge a
// worker for hours and the watchdog can only report it, not kill it.
// Validation is the layer that actually prevents that.
const (
	maxParamSize        = 16 << 20
	maxParamN           = 4096
	maxParamGenerations = 10000
)

// Validate rejects parameter values that would let a single request
// monopolize the runtime. Negative values are allowed through: they
// mean "use the workload default" (see withDefaults).
func (p Params) Validate() error {
	if p.Size > maxParamSize {
		return fmt.Errorf("size %d exceeds limit %d", p.Size, maxParamSize)
	}
	if p.N > maxParamN {
		return fmt.Errorf("n %d exceeds limit %d", p.N, maxParamN)
	}
	if p.Generations > maxParamGenerations {
		return fmt.Errorf("generations %d exceeds limit %d", p.Generations, maxParamGenerations)
	}
	return nil
}

func (p Params) withDefaults(size, n int) Params {
	if p.Size <= 0 {
		p.Size = size
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.N <= 0 {
		p.N = n
	}
	if p.Generations <= 0 {
		p.Generations = 8
	}
	return p
}

// Workload is one invocable job type: a named entry point over the
// kernels, bound to a WATS task class so the history/partition machinery
// learns each endpoint's cost profile separately. Run executes inside a
// runtime task: it may spawn child tasks through ctx (groups work) and
// should poll ctx.Err() at natural checkpoints so deadline-exceeded jobs
// stop early — between-task cancellation is automatic, within-task
// cancellation is cooperative.
type Workload struct {
	Name  string                                        `json:"name"`
	Class string                                        `json:"class"`
	Desc  string                                        `json:"desc"`
	Run   func(ctx *runtime.Ctx, p Params) (any, error) `json:"-"`
}

// Builtins returns the standard workload registry: every kernel family as
// an invocable job type. The map is freshly built so callers may add or
// replace entries without affecting other servers.
func Builtins() map[string]Workload {
	ws := []Workload{
		{
			// noop is the admission-path control workload: it does no work
			// and allocates nothing, so benchmarks and the zero-alloc gate
			// measure the serving machinery itself rather than a kernel.
			Name: "noop", Class: "noop", Desc: "no-op control job (admission-path benchmarking)",
			Run: func(ctx *runtime.Ctx, p Params) (any, error) {
				return nil, ctx.Err()
			},
		},
		{
			Name: "sha1", Class: "sha1", Desc: "SHA-1 digest of a pseudo-random input (size bytes)",
			Run: func(ctx *runtime.Ctx, p Params) (any, error) {
				p = p.withDefaults(64<<10, 1)
				data := kernels.NewInput(p.Seed).Bytes(p.Size)
				return map[string]any{"sha1": fmt.Sprintf("%x", kernels.SHA1Sum(data)), "bytes": p.Size}, nil
			},
		},
		{
			Name: "md5", Class: "md5", Desc: "MD5 digest of a pseudo-random input (size bytes)",
			Run: func(ctx *runtime.Ctx, p Params) (any, error) {
				p = p.withDefaults(64<<10, 1)
				data := kernels.NewInput(p.Seed).Bytes(p.Size)
				return map[string]any{"md5": fmt.Sprintf("%x", kernels.MD5Sum(data)), "bytes": p.Size}, nil
			},
		},
		{
			Name: "lzw", Class: "lzw", Desc: "LZW compress + decompress round trip",
			Run: func(ctx *runtime.Ctx, p Params) (any, error) {
				p = p.withDefaults(32<<10, 1)
				data := kernels.NewInput(p.Seed).Bytes(p.Size)
				enc := kernels.LZWEncode(data)
				if _, err := kernels.LZWDecode(enc); err != nil {
					return nil, err
				}
				return ratioResult(p.Size, len(enc)), nil
			},
		},
		{
			Name: "dmc", Class: "dmc", Desc: "dynamic Markov coding round trip",
			Run: func(ctx *runtime.Ctx, p Params) (any, error) {
				p = p.withDefaults(8<<10, 1)
				data := kernels.NewInput(p.Seed).Bytes(p.Size)
				enc := kernels.DMCEncode(data, 1<<14)
				if _, err := kernels.DMCDecode(enc, len(data), 1<<14); err != nil {
					return nil, err
				}
				return ratioResult(p.Size, len(enc)), nil
			},
		},
		{
			Name: "huffman", Class: "huffman", Desc: "canonical Huffman encode + decode round trip",
			Run: func(ctx *runtime.Ctx, p Params) (any, error) {
				p = p.withDefaults(32<<10, 1)
				data := kernels.NewInput(p.Seed).Text(p.Size)
				enc := kernels.HuffmanEncode(data)
				if _, err := kernels.HuffmanDecode(enc); err != nil {
					return nil, err
				}
				return ratioResult(p.Size, len(enc)), nil
			},
		},
		{
			Name: "bwt", Class: "bwt", Desc: "Burrows-Wheeler transform + inverse round trip",
			Run: func(ctx *runtime.Ctx, p Params) (any, error) {
				p = p.withDefaults(16<<10, 1)
				data := kernels.NewInput(p.Seed).Bytes(p.Size)
				out, primary := kernels.BWT(data)
				if _, err := kernels.UnBWT(out, primary); err != nil {
					return nil, err
				}
				return map[string]any{"bytes": p.Size, "primary": primary}, nil
			},
		},
		{
			Name: "bzip2", Class: "bzip2", Desc: "Bzip2-like pipeline (BWT+MTF+RLE+Huffman) round trip — heavy",
			Run: func(ctx *runtime.Ctx, p Params) (any, error) {
				p = p.withDefaults(12<<10, 1)
				data := kernels.NewInput(p.Seed).Text(p.Size)
				enc, primary := kernels.Bzip2Like(data)
				if _, err := kernels.Bzip2LikeDecode(enc, primary); err != nil {
					return nil, err
				}
				return ratioResult(p.Size, len(enc)), nil
			},
		},
		{
			Name: "dedup", Class: "dedup", Desc: "content-defined chunking + dedup store round trip",
			Run: func(ctx *runtime.Ctx, p Params) (any, error) {
				p = p.withDefaults(64<<10, 1)
				data := kernels.NewInput(p.Seed).Bytes(p.Size)
				chunks := kernels.Chunk(data, kernels.ChunkerConfig{})
				st := kernels.NewStore()
				unique := 0
				for _, c := range chunks {
					if st.Put(c) {
						unique++
					}
				}
				return map[string]any{"chunks": len(chunks), "unique": unique, "ratio": st.DedupRatio()}, nil
			},
		},
		{
			Name: "ga", Class: "ga", Desc: "island-model GA on Rastrigin; cancellable between generations",
			Run: func(ctx *runtime.Ctx, p Params) (any, error) {
				p = p.withDefaults(64, 1)
				is := kernels.NewIsland(kernels.GAConfig{
					Pop: p.Size, Genome: 24, Generations: 1, Seed: p.Seed,
				})
				// One Evolve call per generation, with a cancellation
				// checkpoint in between: a deadline-exceeded job stops at
				// the next generation boundary instead of finishing.
				for g := 0; g < p.Generations; g++ {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					is.Evolve()
				}
				return map[string]any{"best": is.Best(), "generations": p.Generations}, nil
			},
		},
		{
			Name: "ferret", Class: "ferret", Desc: "image segment + feature extract + similarity rank over n images",
			Run: func(ctx *runtime.Ctx, p Params) (any, error) {
				p = p.withDefaults(48, 8)
				ix := &kernels.Index{}
				for i := 0; i < p.N; i++ {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					img := kernels.GenImage(p.Size, p.Size, p.Seed+uint64(i))
					ix.Add(i, kernels.Extract(img, kernels.Segment(img, 4), 4))
				}
				q := kernels.GenImage(p.Size, p.Size, p.Seed+uint64(p.N))
				matches := ix.Rank(kernels.Extract(q, kernels.Segment(q, 4), 4), 3)
				ids := make([]int, len(matches))
				for i, m := range matches {
					ids[i] = m.ID
				}
				return map[string]any{"indexed": ix.Len(), "top": ids}, nil
			},
		},
		{
			Name: "mix", Class: "mix", Desc: "fork-join fan-out: n child tasks of mixed kernels (bzip2/lzw/sha1)",
			Run: func(ctx *runtime.Ctx, p Params) (any, error) {
				p = p.withDefaults(4<<10, 16)
				in := kernels.NewInput(p.Seed)
				// Children report round-trip failures through a shared
				// first-error slot instead of panicking: a corrupt round
				// trip is a job failure (500 "failed"), not a poisoned
				// job — the panic path is reserved for genuinely
				// unexpected faults.
				var (
					errMu    sync.Mutex
					firstErr error
				)
				fail := func(err error) {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
				g := ctx.Group()
				for i := 0; i < p.N; i++ {
					data := in.Bytes(p.Size)
					switch i % 4 {
					case 0:
						text := in.Text(p.Size)
						g.Spawn(ctx, "bzip2", func(c *runtime.Ctx) {
							enc, pr := kernels.Bzip2Like(text)
							if _, err := kernels.Bzip2LikeDecode(enc, pr); err != nil {
								fail(fmt.Errorf("bzip2 round trip: %w", err))
							}
						})
					case 1:
						g.Spawn(ctx, "lzw", func(c *runtime.Ctx) {
							if _, err := kernels.LZWDecode(kernels.LZWEncode(data)); err != nil {
								fail(fmt.Errorf("lzw round trip: %w", err))
							}
						})
					default:
						g.Spawn(ctx, "sha1", func(c *runtime.Ctx) {
							_ = kernels.SHA1Sum(data)
							_ = kernels.MD5Sum(data)
						})
					}
				}
				g.Wait(ctx)
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				errMu.Lock()
				err := firstErr
				errMu.Unlock()
				if err != nil {
					return nil, err
				}
				return map[string]any{"children": p.N}, nil
			},
		},
	}
	m := make(map[string]Workload, len(ws))
	for _, w := range ws {
		m[w.Name] = w
	}
	return m
}

func ratioResult(raw, enc int) map[string]any {
	return map[string]any{"bytes": raw, "encoded": enc, "ratio": float64(enc) / float64(raw)}
}

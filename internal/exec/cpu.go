package exec

import (
	"context"
	"time"

	"omegago/internal/ld"
	"omegago/internal/omega"
	"omegago/internal/seqio"
)

func init() { Register(cpuBackend{}) }

// cpuBackend runs the reference OmegaPlus algorithm on the host through
// the omega scan engine: resident or streamed, with Threads
// cost-balanced shards (per chunk when streaming).
type cpuBackend struct{}

func (cpuBackend) Name() string { return "cpu" }

func (cpuBackend) Scan(ctx context.Context, a *seqio.Alignment, p omega.Params, opts Options) (*Output, error) {
	p = p.WithDefaults()
	if opts.OmegaKernel != omega.KernelAuto {
		p.Kernel = opts.OmegaKernel
	}
	if opts.OmegaNthr > 0 {
		p.KernelNthr = opts.OmegaNthr
	}
	engine := ld.Direct
	if opts.UseGEMMLD {
		engine = ld.GEMM
	}
	threads := opts.Threads
	if threads < 1 {
		threads = 1
	}
	t0 := time.Now()
	var (
		results []omega.Result
		st      omega.Stats
		sst     omega.StreamStats
		err     error
	)
	if opts.Stream != nil {
		// Out-of-core path: chunks are scanned in order with parsing
		// double-buffered against compute.
		results, st, sst, err = omega.ScanStream(ctx, opts.Stream, p, engine, threads, opts.ChunkSNPs, opts.Meter)
	} else {
		results, st, err = omega.Scan(ctx, a, p, engine, threads, opts.Meter)
	}
	if err != nil {
		return nil, err
	}
	return &Output{
		Results: results,
		Stats: Stats{
			Grid:                 st.Grid,
			OmegaScores:          st.OmegaScores,
			R2Computed:           st.R2Computed,
			R2Reused:             st.R2Reused,
			R2Duplicated:         st.R2Duplicated,
			LDSeconds:            st.LDTime.Seconds(),
			OmegaSeconds:         st.OmegaTime.Seconds(),
			WallSeconds:          time.Since(t0).Seconds(),
			OmegaKernelScalar:    st.KernelScalar,
			OmegaKernelBlocked:   st.KernelBlocked,
			StreamChunks:         sst.Chunks,
			StreamBytesRead:      sst.BytesRead,
			StreamCompressedSNPs: sst.CompressedSNPs,
			StreamLoadSeconds:    sst.LoadTime.Seconds(),
			StreamStallSeconds:   sst.StallTime.Seconds(),
		},
	}, nil
}

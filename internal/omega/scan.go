package omega

import (
	"context"
	"time"

	"omegago/internal/ld"
	"omegago/internal/obs"
	"omegago/internal/seqio"
)

// Stats aggregates the work performed by a scan. The LD/ω time split is
// the quantity Fig. 14 of the paper reports; the score counts are the
// throughput numerators of Table III.
type Stats struct {
	Grid        int   // grid positions evaluated
	OmegaScores int64 // ω values computed
	R2Computed  int64 // fresh r² values (M cells filled)
	R2Reused    int64 // M cells preserved by relocation
	// R2Duplicated counts the subset of R2Computed that a serial scan
	// would have obtained by relocation instead: the overlap triangles
	// each shard or streamed chunk recomputes at its left boundary
	// because it owns a private DP matrix. Zero for a single-threaded
	// resident scan; it keeps the Table III reuse accounting honest.
	R2Duplicated int64
	// LDTime covers r² computation and the DP update of M; OmegaTime
	// covers the ω nested loop. Summed across workers for parallel scans.
	LDTime    time.Duration
	OmegaTime time.Duration
	// KernelScalar/KernelBlocked count the grid regions evaluated by each
	// ω kernel implementation — the CPU analogue of the paper's Kernel
	// I/II launch split under dynamic selection (§IV-A). With a forced
	// kernel one counter carries the whole grid; under auto dispatch the
	// split shows which side of the Nthr threshold the workload fell on.
	KernelScalar  int64
	KernelBlocked int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Grid += other.Grid
	s.OmegaScores += other.OmegaScores
	s.R2Computed += other.R2Computed
	s.R2Reused += other.R2Reused
	s.R2Duplicated += other.R2Duplicated
	s.LDTime += other.LDTime
	s.OmegaTime += other.OmegaTime
	s.KernelScalar += other.KernelScalar
	s.KernelBlocked += other.KernelBlocked
}

// Scan runs the complete OmegaPlus workflow (§III of the paper) over a
// resident alignment: for every grid position, slide the DP matrix of
// Equation 3 to the region (computing Equation 1 r² for newly entering
// SNPs, relocating the overlap) and score all admissible window
// combinations with Equation 2. With threads = 1 this is the
// single-core reference whose timings are the CPU baselines of Fig. 14
// and Table III; with more, the grid is cut into min(threads, grid)
// cost-balanced shards scanned in parallel (see engine.go). Results are
// bit-identical at every thread count, and to every other execution
// path — streamed scans and simulated accelerators alike.
//
// ctx is checked between grid positions, so a cancelled or expired
// context aborts the scan within one region of work per shard and
// returns ctx.Err(); all shard workers are joined before returning. mt
// (nil = disabled) receives one tick and the LD/ω phase spans per
// region — on lane 0 for a lone shard, on lane 2+s for shard s of a
// fan-out, which also reports one "shard s" summary span — so a
// trace.Tracer observing the scan renders each shard on its own lane.
func Scan(ctx context.Context, a *seqio.Alignment, p Params, engine ld.Engine, threads int, mt *obs.Meter) ([]Result, Stats, error) {
	regions, err := BuildRegions(a, p)
	if err != nil {
		return nil, Stats{}, err
	}
	e, err := newEngine(regions, a.Positions, a.Samples(), p.WithDefaults(), threads, mt)
	if err != nil {
		return nil, Stats{}, err
	}
	st, err := e.scan(ctx, a, ld.NewComputer(a, engine, 1), 0, 0, len(regions))
	if err != nil {
		return nil, st, err
	}
	return e.results, st, nil
}

// MaxResult returns the result with the highest ω (the sweep candidate),
// or ok=false if no grid position was valid.
func MaxResult(results []Result) (Result, bool) {
	best := Result{}
	ok := false
	for _, r := range results {
		if !r.Valid {
			continue
		}
		if !ok || r.MaxOmega > best.MaxOmega {
			best = r
			ok = true
		}
	}
	return best, ok
}

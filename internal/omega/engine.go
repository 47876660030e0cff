package omega

import (
	"context"
	"fmt"
	"sync"
	"time"

	"omegago/internal/bitvec"
	"omegago/internal/ld"
	"omegago/internal/obs"
	"omegago/internal/seqio"
)

// The scan engine. Every CPU scan — serial, multithreaded and streamed —
// is the same two steps over a contiguous run of grid regions whose
// rows are resident: cut the run into cost-balanced contiguous shards
// (partition), then slide one private DP matrix per shard through its
// regions (runSpan), the shards in parallel. Scan applies it once to
// the whole grid; ScanStream once per chunk.
//
// Results are bit-identical to a single serial pass however the run is
// cut: DP cells do not depend on the relocation history (each cell is
// the same Equation 3 recurrence over the same Equation 1 r² values),
// and the kernels read them in the same order. What cutting does cost
// is the overlap triangle each shard recomputes at its left boundary —
// cells a serial matrix would have relocated — which Stats.R2Duplicated
// reports exactly and partition charges to the shard that pays it.

// shardSpan is a contiguous run of grid regions [Lo, Hi) owned by one
// worker. Contiguity is what lets each shard keep a private DP matrix:
// within a shard the region windows are monotone (BuildRegions
// guarantees monotonicity over the whole grid, hence over any
// contiguous slice of it), so the relocation optimization of Equation 3
// applies shard-locally exactly as it does serially.
type shardSpan struct {
	Lo, Hi int // region index range, half-open
}

// regionSkipped is the engine's emptiness test: such regions produce a
// zero Result without touching the DP matrix.
func regionSkipped(reg Region) bool {
	return reg.Lo > reg.Hi || reg.K < reg.Lo || reg.K >= reg.Hi
}

// triangleCells returns the number of M cells computed for a fresh
// window of w SNPs: one r² per strictly-sub-diagonal cell, C(w, 2).
func triangleCells(w int) int64 {
	if w < 2 {
		return 0
	}
	return int64(w) * int64(w-1) / 2
}

// predecessorHi returns the Hi of the last non-empty region before
// regions[i] — the window a serial matrix would hold on arriving at i —
// or −1 when there is none.
func predecessorHi(regions []Region, i int) int {
	for i--; i >= 0; i-- {
		if !regionSkipped(regions[i]) {
			return regions[i].Hi
		}
	}
	return -1
}

// regionCost is the estimated scan cost of one region in the units of
// the cost weights next to DefaultNthr: serial is what a
// matrix already sliding through the grid pays for it (its fresh cells
// plus its ω scores), boundary what a shard whose first non-empty
// region it is pays on top (the overlap triangle it recomputes instead
// of relocating). Empty regions are not live and cost nothing.
type regionCost struct {
	serial, boundary int64
	live             bool
}

// estimateCosts returns the cost of every region for rows of the given
// sample count, over the global positions table the regions index.
func estimateCosts(regions []Region, pos []float64, p Params, samples int) []regionCost {
	cell := int64(costR2Cell + costR2PerWord*bitvec.WordsFor(samples) + costDPCell)
	costs := make([]regionCost, len(regions))
	prevHi := -1
	for i, reg := range regions {
		if regionSkipped(reg) {
			continue
		}
		overlap := triangleCells(prevHi - reg.Lo + 1)
		costs[i] = regionCost{
			serial:   (triangleCells(reg.Hi-reg.Lo+1)-overlap)*cell + countOmegas(pos, reg, p)*costOmega,
			boundary: overlap * cell,
			live:     true,
		}
		prevHi = reg.Hi
	}
	return costs
}

// shardCoster prices any contiguous shard of a cost slice in O(1).
type shardCoster struct {
	costs     []regionCost
	prefix    []int64 // prefix[i] = Σ serial over costs[:i]
	firstLive []int   // first live index ≥ i (len(costs) if none)
}

func newShardCoster(costs []regionCost) shardCoster {
	n := len(costs)
	c := shardCoster{costs: costs, prefix: make([]int64, n+1), firstLive: make([]int, n+1)}
	c.firstLive[n] = n
	for i := n - 1; i >= 0; i-- {
		c.firstLive[i] = c.firstLive[i+1]
		if costs[i].live {
			c.firstLive[i] = i
		}
	}
	for i, rc := range costs {
		c.prefix[i+1] = c.prefix[i] + rc.serial
	}
	return c
}

// cost returns the estimated cost of the shard [lo, hi): the serial
// costs of its regions plus the boundary of its first live region.
func (c shardCoster) cost(lo, hi int) int64 {
	v := c.prefix[hi] - c.prefix[lo]
	if f := c.firstLive[lo]; f < hi {
		v += c.costs[f].boundary
	}
	return v
}

// partition cuts costs into exactly min(threads, len(costs)) contiguous
// shards minimizing the most expensive shard, boundary triangles
// included.
//
// A suffix of a shard never costs more than the shard (every cell of a
// window was computed at or before it by the matrix sliding there), so
// greedily extending each shard as far as a bound t allows uses the
// fewest shards for t; a binary search finds the least t that fits in
// threads shards. If that takes fewer shards than threads, the most
// expensive multi-region shard is split at its best cut until the count
// is reached — by the same suffix property no split raises the maximum.
func partition(costs []regionCost, threads int) []shardSpan {
	n := len(costs)
	if threads > n {
		threads = n
	}
	if threads <= 1 {
		return []shardSpan{{Lo: 0, Hi: n}}
	}
	sc := newShardCoster(costs)
	// cut fills shards greedily up to bound t, returning their ends, or
	// nil when more than threads shards would be needed.
	cut := func(t int64) []int {
		var ends []int
		for lo := 0; lo < n; {
			if len(ends) == threads {
				return nil
			}
			hi := lo + 1
			for hi < n && sc.cost(lo, hi+1) <= t {
				hi++
			}
			if sc.cost(lo, hi) > t {
				return nil
			}
			ends = append(ends, hi)
			lo = hi
		}
		return ends
	}
	loT, hiT := int64(0), sc.cost(0, n)
	for loT < hiT {
		if mid := loT + (hiT-loT)/2; cut(mid) != nil {
			hiT = mid
		} else {
			loT = mid + 1
		}
	}
	spans := make([]shardSpan, 0, threads)
	lo := 0
	for _, hi := range cut(hiT) {
		spans = append(spans, shardSpan{Lo: lo, Hi: hi})
		lo = hi
	}
	for len(spans) < threads {
		worst := -1
		for s, sp := range spans {
			if sp.Hi-sp.Lo > 1 && (worst < 0 || sc.cost(sp.Lo, sp.Hi) > sc.cost(spans[worst].Lo, spans[worst].Hi)) {
				worst = s
			}
		}
		sp := spans[worst]
		best := sp.Lo + 1
		for m := sp.Lo + 2; m < sp.Hi; m++ {
			if max(sc.cost(sp.Lo, m), sc.cost(m, sp.Hi)) < max(sc.cost(sp.Lo, best), sc.cost(best, sp.Hi)) {
				best = m
			}
		}
		spans = append(spans, shardSpan{})
		copy(spans[worst+2:], spans[worst+1:])
		spans[worst] = shardSpan{Lo: sp.Lo, Hi: best}
		spans[worst+1] = shardSpan{Lo: best, Hi: sp.Hi}
	}
	return spans
}

// engine holds what every fan-out of one scan shares: the grid, the
// resolved parameters and kernel, the output slots, and one Scratch
// per shard slot, reused across a streamed scan's chunks.
type engine struct {
	regions []Region
	costs   []regionCost // nil for single-threaded scans
	p       Params
	krn     Kernel
	threads int
	results []Result
	mt      *obs.Meter
	scratch []*Scratch
}

// newEngine lays out a scan of regions over positions pos (the global
// table the regions index) with samples per row. threads < 1 is an
// error; p must already carry its defaults.
func newEngine(regions []Region, pos []float64, samples int, p Params, threads int, mt *obs.Meter) (*engine, error) {
	if threads < 1 {
		return nil, fmt.Errorf("omega: thread count %d < 1", threads)
	}
	krn, err := kernelFor(p)
	if err != nil {
		return nil, err
	}
	e := &engine{regions: regions, p: p, krn: krn, threads: min(threads, len(regions)),
		results: make([]Result, len(regions)), mt: mt}
	if e.threads > 1 {
		e.costs = estimateCosts(regions, pos, p, samples)
	}
	e.scratch = make([]*Scratch, e.threads)
	return e, nil
}

// scan runs regions [lo, hi) against resident rows whose row 0 is
// global SNP offset, fanned out over the engine's threads. comp is the
// LD computer over rows; each shard works on its own clone. rows and
// comp are nil only when no region in [lo, hi) is live.
func (e *engine) scan(ctx context.Context, rows *seqio.Alignment, comp *ld.Computer, offset, lo, hi int) (Stats, error) {
	spans := []shardSpan{{Lo: 0, Hi: hi - lo}}
	if e.threads > 1 && rows != nil {
		spans = partition(e.costs[lo:hi], e.threads)
	}
	if len(spans) == 1 {
		return e.runSpan(ctx, rows, comp, offset, lo, hi, 0, 0)
	}
	perShard := make([]Stats, len(spans))
	errs := make([]error, len(spans))
	var wg sync.WaitGroup
	for s, sp := range spans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			perShard[s], errs[s] = e.runSpan(ctx, rows, comp.Clone(), offset, lo+sp.Lo, lo+sp.Hi, s, 2+s)
			st := perShard[s]
			e.mt.Span(fmt.Sprintf("shard %d", s), 2+s, start, time.Since(start), false, map[string]any{
				"regions":       sp.Hi - sp.Lo,
				"r2_computed":   st.R2Computed,
				"r2_reused":     st.R2Reused,
				"r2_duplicated": st.R2Duplicated,
			})
		}()
	}
	wg.Wait()
	var st Stats
	for s := range spans {
		if errs[s] != nil {
			return st, errs[s]
		}
		st.Add(perShard[s])
	}
	return st, nil
}

// runSpan is the engine's one per-region loop: it slides a DP matrix
// through regions [lo, hi) — skip test, Advance (Equation 3), Evaluate
// (Equation 2) — writing each Result into its global slot and checking
// ctx between regions. Region indices are global; rows hold global SNPs
// [offset, offset+rows.NumSNPs()), so windows are shifted to row-local
// indices for the matrix and the winning borders shifted back (row
// positions are the global table sliced at offset, so they need no
// shift). slot selects the shard's Scratch and lane its trace lane (0
// for a lone span, 2+slot for a fanned-out shard). The meter (nil =
// disabled) receives one tick and the LD/ω spans per region; the span
// durations reuse the Stats timings, so observability adds no clock
// reads of its own.
func (e *engine) runSpan(ctx context.Context, rows *seqio.Alignment, comp *ld.Computer, offset, lo, hi, slot, lane int) (Stats, error) {
	var m *DPMatrix
	s := e.scratch[slot]
	if rows != nil { // nil only when no region in [lo, hi) is live
		if s == nil {
			s = NewScratch(rows, e.p)
			e.scratch[slot] = s
		}
		s.pos = rows.Positions
		s.ScalarRegions, s.BlockedRegions = 0, 0
		m = NewDPMatrixScratch(comp, s)
	}
	var st Stats
	prevHi := predecessorHi(e.regions, lo)
	first := true
	var prevR2 int64
	for i := lo; i < hi; i++ {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		reg := e.regions[i]
		st.Grid++
		if regionSkipped(reg) {
			e.results[i] = Result{GridIndex: reg.Index, Center: reg.Center}
			e.mt.Tick(0, 0)
			continue
		}
		if first {
			st.R2Duplicated = triangleCells(prevHi - reg.Lo + 1)
			first = false
		}
		local := reg
		local.Lo -= offset
		local.Hi -= offset
		local.K -= offset

		t0 := time.Now()
		m.Advance(local.Lo, local.Hi)
		dLD := time.Since(t0)
		st.LDTime += dLD
		e.mt.Span(obs.PhaseLD, lane, t0, dLD, false, nil)

		t1 := time.Now()
		res := e.krn.Evaluate(s, m, local, e.p)
		dOmega := time.Since(t1)
		st.OmegaTime += dOmega
		e.mt.Span(obs.PhaseOmega, lane, t1, dOmega, false, nil)
		if res.Valid {
			res.LeftBorder += offset
			res.RightBorder += offset
		}
		st.OmegaScores += res.Scores
		e.results[i] = res
		r2 := m.R2Computed()
		e.mt.Tick(res.Scores, r2-prevR2)
		prevR2 = r2
	}
	if m != nil {
		st.R2Computed = m.R2Computed()
		st.R2Reused = m.R2Reused()
		st.KernelScalar = s.ScalarRegions
		st.KernelBlocked = s.BlockedRegions
	}
	return st, nil
}

// Package ld computes linkage disequilibrium as the squared Pearson
// correlation coefficient r² between SNP pairs (Equation 1 of the paper,
// in its standard corrected form):
//
//	r²_ij = (p_ij − p_i·p_j)² / (p_i(1−p_i)·p_j(1−p_j))
//
// Two execution engines are provided, mirroring the tools the paper
// builds on:
//
//   - Direct: one AND+popcount per pair over the bit-packed alignment
//     (the OmegaPlus CPU path), mask-aware for missing data;
//   - GEMM: pair counts for whole rectangles (Rect) or window trapezoids
//     (PairCounts) of the pair matrix computed as a cache-blocked
//     bit-matrix multiplication (internal/gemm), the dense-linear-
//     algebra cast of Binder et al. / Alachiotis-Popovici-Low that the
//     paper's GPU LD implementation uses; the trapezoid path skips the
//     lower triangle and out-of-window pairs entirely.
//
// Both engines produce bit-identical r² values (a property test holds
// them to that), so backends may switch freely between them.
package ld

import (
	"fmt"
	"sync"
	"sync/atomic"

	"omegago/internal/bitvec"
	"omegago/internal/gemm"
	"omegago/internal/seqio"
)

// Engine selects how pair counts are obtained.
type Engine int

const (
	// Direct computes one popcount per SNP pair.
	Direct Engine = iota
	// GEMM batches pair counts through the bit-matrix multiply kernel.
	GEMM
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case Direct:
		return "direct"
	case GEMM:
		return "gemm"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// RSquaredFromCounts converts co-occurrence counts to r²: n is the number
// of valid samples, ci and cj the derived-allele counts at the two SNPs,
// cij the count of samples derived at both. Monomorphic sites (within the
// valid subset) yield 0. The result is clamped to [0, 1] against
// floating-point drift.
func RSquaredFromCounts(n, ci, cj, cij int) float64 {
	if n <= 0 || ci <= 0 || cj <= 0 || ci >= n || cj >= n {
		return 0
	}
	fn := float64(n)
	pi := float64(ci) / fn
	pj := float64(cj) / fn
	pij := float64(cij) / fn
	num := pij - pi*pj
	// Grouping the variance terms keeps the expression exactly
	// symmetric in (i, j) under IEEE rounding.
	den := (pi * (1 - pi)) * (pj * (1 - pj))
	r2 := num * num / den
	if r2 < 0 {
		return 0
	}
	if r2 > 1 {
		return 1
	}
	return r2
}

// Computer evaluates r² over one alignment with a chosen engine.
// It caches per-SNP derived-allele counts and counts every r² evaluation
// (the "LD scores" metric of the paper's Table III).
type Computer struct {
	aln     *seqio.Alignment
	engine  Engine
	workers int
	ones    []int // derived-allele count per SNP (unmasked)
	scores  atomic.Int64
}

// NewComputer builds a Computer. workers bounds the goroutines used by
// the GEMM engine; values < 1 mean serial.
func NewComputer(a *seqio.Alignment, engine Engine, workers int) *Computer {
	if workers < 1 {
		workers = 1
	}
	c := &Computer{aln: a, engine: engine, workers: workers}
	c.ones = make([]int, a.NumSNPs())
	for i := range c.ones {
		c.ones[i] = a.Matrix.Row(i).OnesCount()
	}
	return c
}

// Alignment returns the alignment the computer operates on.
func (c *Computer) Alignment() *seqio.Alignment { return c.aln }

// Clone returns an independent Computer over the same alignment and
// engine. The immutable per-SNP allele counts are shared (they are
// computed once, at NewComputer time), but the score counter starts at
// zero, so each clone tallies only its own r² evaluations. This is what
// lets the omega scan engine give every shard its own LD computer without
// re-deriving the allele counts or contending on one atomic counter.
func (c *Computer) Clone() *Computer {
	return &Computer{aln: c.aln, engine: c.engine, workers: c.workers, ones: c.ones}
}

// Engine returns the computer's execution engine.
func (c *Computer) Engine() Engine { return c.engine }

// Batched reports whether Rect calls are worth batching into large
// rectangles (the GEMM engine on mask-free data).
func (c *Computer) Batched() bool {
	return c.engine == GEMM && !c.aln.Matrix.HasMissing()
}

// Scores returns the number of r² values computed so far — the "LD
// scores" throughput numerator of the paper's Table III.
func (c *Computer) Scores() int64 { return c.scores.Load() }

// R2 computes the Equation 1 r² between SNPs i and j (any order),
// honouring missing-data masks: the joint count comes from one
// AND+popcount over the bit-packed rows (the OmegaPlus CPU LD path,
// §III) and feeds RSquaredFromCounts.
func (c *Computer) R2(i, j int) float64 {
	c.scores.Add(1)
	m := c.aln.Matrix
	if m.Mask(i) == nil && m.Mask(j) == nil {
		cij := bitvec.AndCount(m.Row(i), m.Row(j))
		return RSquaredFromCounts(c.aln.Samples(), c.ones[i], c.ones[j], cij)
	}
	n, ci, cj, cij := m.PairCounts(i, j)
	return RSquaredFromCounts(n, ci, cj, cij)
}

// Rect computes r² for every pair (i, j) with i in [iLo, iHi) and j in
// [jLo, jHi), writing results through set(i, j, r²). With the GEMM
// engine the pair counts for the whole rectangle come from one batched
// bit-matrix multiplication; alignments containing missing data fall
// back to the mask-aware direct path pair by pair.
func (c *Computer) Rect(iLo, iHi, jLo, jHi int, set func(i, j int, r2 float64)) {
	if iLo < 0 || jLo < 0 || iHi > c.aln.NumSNPs() || jHi > c.aln.NumSNPs() || iLo > iHi || jLo > jHi {
		panic(fmt.Sprintf("ld: bad rectangle [%d,%d)x[%d,%d) of %d SNPs",
			iLo, iHi, jLo, jHi, c.aln.NumSNPs()))
	}
	if iLo == iHi || jLo == jHi {
		return
	}
	if c.engine == GEMM && !c.aln.Matrix.HasMissing() {
		c.rectGEMM(iLo, iHi, jLo, jHi, set)
		return
	}
	if c.workers > 1 && iHi-iLo > 1 {
		// Fine-grain LD parallelism (the OmegaPlus-F strategy): rows of
		// the rectangle are independent, so workers split them. The
		// callback must tolerate concurrent invocations on distinct
		// (i, j) pairs — DP-fill targets distinct cells, so it does.
		c.rectParallelDirect(iLo, iHi, jLo, jHi, set)
		return
	}
	for i := iLo; i < iHi; i++ {
		for j := jLo; j < jHi; j++ {
			set(i, j, c.R2(i, j))
		}
	}
}

// gemmMinPairs is the density threshold below which PairCounts keeps
// the per-pair direct walk even on the GEMM engine: packing panels and
// allocating a count matrix for a handful of pairs costs more than the
// pairs themselves. Results are bit-identical either way, so the
// threshold is purely a performance knob.
const gemmMinPairs = 1024

// PairCounts computes r² for every pair (i, j) with i ∈ [iLo, iHi) and
// jLo ≤ j < i — the trapezoid of fresh pairs a DP-matrix extension
// consumes — writing each value through set(i, j, r²).
//
// When the engine batches (GEMM, mask-free data) and the trapezoid is
// dense enough, all pair counts come from one cache-blocked triangular
// bit-GEMM (gemm.PopcountTrapezoid): the lower triangle and
// out-of-window pairs are never popcounted, unlike the rectangular Rect
// path which pads the region to full blocks. Sparse trapezoids and
// masked alignments fall back to the direct per-pair walk, parallelized
// across rows when the computer has workers. Both paths produce
// bit-identical r² (the counts are exact integers either way).
func (c *Computer) PairCounts(iLo, iHi, jLo int, set func(i, j int, r2 float64)) {
	n := c.aln.NumSNPs()
	if iLo < 0 || jLo < 0 || iHi > n || iLo > iHi || jLo > n {
		panic(fmt.Sprintf("ld: bad trapezoid rows [%d,%d) cols from %d of %d SNPs",
			iLo, iHi, jLo, n))
	}
	pairs := gemm.TrapezoidPairs(iHi-iLo, iHi-1-jLo, iLo-jLo-1)
	if pairs == 0 {
		return
	}
	if c.Batched() && pairs >= gemmMinPairs {
		c.trapezoidGEMM(iLo, iHi, jLo, set)
		return
	}
	if c.workers > 1 && iHi-iLo > 1 {
		c.trapezoidParallelDirect(iLo, iHi, jLo, set)
		return
	}
	for i := iLo; i < iHi; i++ {
		for j := jLo; j < i; j++ {
			set(i, j, c.R2(i, j))
		}
	}
}

// trapezoidGEMM packs the window rows once and runs the blocked
// triangular kernel: A rows are the new SNPs [iLo, iHi), B rows the
// window SNPs [jLo, iHi−1), and the diagonal offset iLo−jLo−1 encodes
// the j < i constraint in packed coordinates.
func (c *Computer) trapezoidGEMM(iLo, iHi, jLo int, set func(i, j int, r2 float64)) {
	rowsA := make([]*bitvec.Vector, iHi-iLo)
	for i := range rowsA {
		rowsA[i] = c.aln.Matrix.Row(iLo + i)
	}
	rowsB := make([]*bitvec.Vector, iHi-1-jLo)
	for j := range rowsB {
		rowsB[j] = c.aln.Matrix.Row(jLo + j)
	}
	a := gemm.FromVectors(rowsA)
	b := gemm.FromVectors(rowsB)
	counts := gemm.PopcountTrapezoid(a, b, iLo-jLo-1, c.workers)
	n := c.aln.Samples()
	var pairs int64
	for i := iLo; i < iHi; i++ {
		for j := jLo; j < i; j++ {
			cij := int(counts.At(i-iLo, j-jLo))
			set(i, j, RSquaredFromCounts(n, c.ones[i], c.ones[j], cij))
		}
		pairs += int64(i - jLo)
	}
	c.scores.Add(pairs)
}

// trapezoidParallelDirect splits the trapezoid's rows over the
// computer's workers (the OmegaPlus-F strategy): row lengths grow with
// i, so the atomic row counter keeps the load balanced. The callback
// must tolerate concurrent calls on distinct (i, j) pairs.
func (c *Computer) trapezoidParallelDirect(iLo, iHi, jLo int, set func(i, j int, r2 float64)) {
	workers := c.workers
	if workers > iHi-iLo {
		workers = iHi - iLo
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	next.Store(int64(iLo))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= iHi {
					return
				}
				for j := jLo; j < i; j++ {
					set(i, j, c.R2(i, j))
				}
			}
		}()
	}
	wg.Wait()
}

func (c *Computer) rectParallelDirect(iLo, iHi, jLo, jHi int, set func(i, j int, r2 float64)) {
	workers := c.workers
	if workers > iHi-iLo {
		workers = iHi - iLo
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	next.Store(int64(iLo))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= iHi {
					return
				}
				for j := jLo; j < jHi; j++ {
					set(i, j, c.R2(i, j))
				}
			}
		}()
	}
	wg.Wait()
}

func (c *Computer) rectGEMM(iLo, iHi, jLo, jHi int, set func(i, j int, r2 float64)) {
	rowsA := make([]*bitvec.Vector, iHi-iLo)
	for i := range rowsA {
		rowsA[i] = c.aln.Matrix.Row(iLo + i)
	}
	rowsB := make([]*bitvec.Vector, jHi-jLo)
	for j := range rowsB {
		rowsB[j] = c.aln.Matrix.Row(jLo + j)
	}
	a := gemm.FromVectors(rowsA)
	b := gemm.FromVectors(rowsB)
	counts := gemm.PopcountGemm(a, b, c.workers)
	n := c.aln.Samples()
	for i := iLo; i < iHi; i++ {
		for j := jLo; j < jHi; j++ {
			cij := int(counts.At(i-iLo, j-jLo))
			set(i, j, RSquaredFromCounts(n, c.ones[i], c.ones[j], cij))
		}
	}
	c.scores.Add(int64((iHi - iLo) * (jHi - jLo)))
}

// PairwiseMatrix computes the full upper-triangular r² matrix of an
// alignment (diagonal excluded), returned row-major as out[i][j] for
// j > i. Primarily a convenience for examples and tests; the scan engine
// uses Rect incrementally instead.
func PairwiseMatrix(a *seqio.Alignment, engine Engine, workers int) [][]float64 {
	c := NewComputer(a, engine, workers)
	w := a.NumSNPs()
	out := make([][]float64, w)
	for i := 0; i < w; i++ {
		out[i] = make([]float64, w)
	}
	if w == 0 {
		return out
	}
	c.Rect(0, w, 0, w, func(i, j int, r2 float64) {
		out[i][j] = r2
	})
	return out
}

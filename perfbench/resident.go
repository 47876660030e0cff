package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"omegago"
	"omegago/internal/ld"
	"omegago/internal/omega"
)

// omega-bound: few samples, a dense grid and an unbounded window at two
// threads under the default auto scheduler (which picks sharded) — the
// ω kernel and the parallel driver carry the load, LD little.
func setupOmegaBound(seed int64, _ string, _ int) (instance, error) {
	return setupResident(seed, 16, 500, omegago.Config{GridSize: 200, MaxWindow: 1e6, Threads: 2})
}

// resident is a repeated resident omegago.Scan of one dataset.
type resident struct {
	ds  *omegago.Dataset
	cfg omegago.Config
	// ref is the serial scalar-kernel reference scan made at setup;
	// every op's results must be bit-identical to it.
	ref *omegago.Report
	// exp is the first scan with the workload's own config; it fixes
	// the per-op work counts every later op must repeat exactly.
	exp *omegago.Report
	// setupFault is non-empty when exp disagrees with ref.
	setupFault string
}

func setupResident(seed int64, samples, snps int, cfg omegago.Config) (*resident, error) {
	ds, err := omegago.Simulate(omegago.SimConfig{
		SampleSize: samples, Replicates: 1, SegSites: snps, Seed: seed,
	}, 1e6)
	if err != nil {
		return nil, err
	}
	refCfg := cfg
	refCfg.Threads = 1
	refCfg.OmegaKernel = omegago.OmegaKernelScalar
	ref, err := omegago.Scan(ds, refCfg)
	if err != nil {
		return nil, fmt.Errorf("reference scan: %w", err)
	}
	exp, err := omegago.Scan(ds, cfg)
	if err != nil {
		return nil, err
	}
	r := &resident{ds: ds, cfg: cfg, ref: ref, exp: exp}
	switch {
	case !sameResults(exp.Results, ref.Results):
		r.setupFault = "results differ from the serial scalar reference"
	case exp.OmegaScores != ref.OmegaScores:
		r.setupFault = fmt.Sprintf("ω scores %d, serial reference %d", exp.OmegaScores, ref.OmegaScores)
	case exp.R2Computed-exp.R2Duplicated != ref.R2Computed:
		r.setupFault = fmt.Sprintf("r² computed %d − duplicated %d ≠ serial %d",
			exp.R2Computed, exp.R2Duplicated, ref.R2Computed)
	}
	return r, nil
}

func (r *resident) close() {}

func (r *resident) warmup() error {
	for i := 0; i < 3; i++ {
		if _, err := omegago.Scan(r.ds, r.cfg); err != nil {
			return err
		}
	}
	return nil
}

// sameResults reports whether two result sets are bit-identical.
func sameResults(a, b []omegago.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.GridIndex != y.GridIndex || x.Valid != y.Valid || x.Scores != y.Scores ||
			x.LeftBorder != y.LeftBorder || x.RightBorder != y.RightBorder ||
			math.Float64bits(x.MaxOmega) != math.Float64bits(y.MaxOmega) ||
			math.Float64bits(x.Center) != math.Float64bits(y.Center) ||
			math.Float64bits(x.LeftPos) != math.Float64bits(y.LeftPos) ||
			math.Float64bits(x.RightPos) != math.Float64bits(y.RightPos) {
			return false
		}
	}
	return true
}

// check reports whether an op's report is correct: bit-identical to
// the reference and doing exactly the seed-determined work.
func (r *resident) check(rep *omegago.Report) bool {
	return r.setupFault == "" && sameResults(rep.Results, r.ref.Results) &&
		rep.OmegaScores == r.exp.OmegaScores && rep.R2Computed == r.exp.R2Computed &&
		rep.R2Reused == r.exp.R2Reused && rep.R2Duplicated == r.exp.R2Duplicated
}

func (r *resident) work() map[string]int64 {
	return map[string]int64{
		"ld.r2_computed":      r.exp.R2Computed,
		"ld.r2_reused":        r.exp.R2Reused,
		"omega.scores":        r.exp.OmegaScores,
		"sched.r2_duplicated": r.exp.R2Duplicated,
	}
}

func (r *resident) timed(n int) (*phase, error) {
	if r.setupFault != "" {
		fmt.Println("setup fault:", r.setupFault)
	}
	ph := serialPhase(n, func() (*omegago.Report, error) { return omegago.Scan(r.ds, r.cfg) }, r.check)
	ph.work = r.work()
	return ph, nil
}

// serialPhase runs n ops one after another and checks each outside its
// time. Every op starts from a collected heap (runtime.GC before it,
// outside its time and CPU), so whether a GC cycle lands inside an op
// does not depend on the pacer's history. Nothing on the library path
// is cached: every op is a cold op.
func serialPhase(n int, op func() (*omegago.Report, error), check func(*omegago.Report) bool) *phase {
	ph := &phase{}
	for i := 0; i < n; i++ {
		runtime.GC()
		c0 := cpuSeconds()
		t0 := time.Now()
		rep, err := op()
		d := time.Since(t0).Seconds()
		ph.cpu += cpuSeconds() - c0
		ph.wall += d
		ph.opSeconds = append(ph.opSeconds, d)
		if err != nil || !check(rep) {
			ph.failed++
			continue
		}
		ph.omegaScores += rep.OmegaScores
	}
	ph.coldSeconds = ph.opSeconds
	return ph
}

// layerTimes accumulates one replayed scan's per-layer time.
type layerTimes struct {
	grid, advance, kernel, r2 float64 // seconds
	r2Pairs                   int64
}

// replay runs the scan's region loop through the layers' exported
// functions — omega.BuildRegions, omega.DPMatrix, the ω kernel — with
// a span around each call, the way the serial engine drives them.
func (r *resident) replay() ([]omega.Result, omega.Stats, layerTimes, error) {
	var lt layerTimes
	t0 := time.Now()
	p := omega.Params{GridSize: r.cfg.GridSize, MaxWindow: r.cfg.MaxWindow}.WithDefaults()
	regions, err := omega.BuildRegions(r.ds, p)
	if err != nil {
		return nil, omega.Stats{}, lt, err
	}
	krn, err := omega.LookupKernel(p.Kernel.String())
	if err != nil {
		return nil, omega.Stats{}, lt, err
	}
	s := omega.NewScratch(r.ds, p)
	m := omega.NewDPMatrixScratch(ld.NewComputer(r.ds, ld.Direct, 1), s)
	lt.grid = time.Since(t0).Seconds()

	results := make([]omega.Result, 0, len(regions))
	var st omega.Stats
	for _, reg := range regions {
		if reg.Lo > reg.Hi || reg.K < reg.Lo || reg.K >= reg.Hi {
			results = append(results, omega.Result{GridIndex: reg.Index, Center: reg.Center})
			continue
		}
		t1 := time.Now()
		m.Advance(reg.Lo, reg.Hi)
		t2 := time.Now()
		res := krn.Evaluate(s, m, reg, p)
		t3 := time.Now()
		lt.advance += t2.Sub(t1).Seconds()
		lt.kernel += t3.Sub(t2).Seconds()
		st.OmegaScores += res.Scores
		results = append(results, res)
	}
	st.R2Computed = m.R2Computed()
	st.R2Reused = m.R2Reused()
	st.KernelScalar = s.ScalarRegions
	st.KernelBlocked = s.BlockedRegions
	return results, st, lt, nil
}

// replayLD times, in a separate pass, exactly the r² trapezoids each
// DPMatrix.Advance of the replay fills, through ld.Computer.PairCounts.
// Advance's own time minus this is the DP recurrence's self time.
func (r *resident) replayLD(lt *layerTimes) error {
	p := omega.Params{GridSize: r.cfg.GridSize, MaxWindow: r.cfg.MaxWindow}.WithDefaults()
	regions, err := omega.BuildRegions(r.ds, p)
	if err != nil {
		return err
	}
	comp := ld.NewComputer(r.ds, ld.Direct, 1)
	var sink float64
	var pairs int64
	set := func(i, j int, r2 float64) { sink += r2; pairs++ }
	lo, hi := 0, -1
	for _, reg := range regions {
		if reg.Lo > reg.Hi || reg.K < reg.Lo || reg.K >= reg.Hi {
			continue
		}
		if reg.Lo > hi {
			lo, hi = reg.Lo, reg.Lo-1
		} else if reg.Lo > lo {
			lo = reg.Lo
		}
		if reg.Hi > hi {
			t0 := time.Now()
			comp.PairCounts(hi+1, reg.Hi+1, lo, set)
			lt.r2 += time.Since(t0).Seconds()
			hi = reg.Hi
		}
	}
	lt.r2Pairs = pairs
	if math.IsNaN(sink) {
		return fmt.Errorf("r² sum is NaN")
	}
	return nil
}

// shardObserver keeps the engine's shard summary spans of one scan.
type shardObserver struct {
	mu     sync.Mutex
	shards []time.Duration
}

func (o *shardObserver) OnProgress(omegago.Progress) {}

func (o *shardObserver) OnPhase(ph omegago.Phase) {
	if strings.HasPrefix(ph.Name, "shard ") {
		o.mu.Lock()
		o.shards = append(o.shards, ph.Duration)
		o.mu.Unlock()
	}
}

func (r *resident) traced(n int) (*tracedRun, error) {
	half := (n + 1) / 2
	m := metrics{}
	failed, attempted := 0, 0

	// Untraced pass: the end-to-end op time the layers must explain.
	gc := startGC()
	e2e := serialPhase(half, func() (*omegago.Report, error) { return omegago.Scan(r.ds, r.cfg) }, r.check)
	gc.report(m, half)
	attempted += half
	failed += e2e.failed

	// Traced pass: the replayed region loop, then its r² trapezoids.
	var sum layerTimes
	var tracedOps []float64
	var st omega.Stats
	for i := 0; i < half; i++ {
		runtime.GC()
		t0 := time.Now()
		res, s, lt, err := r.replay()
		tracedOps = append(tracedOps, time.Since(t0).Seconds())
		attempted++
		if err == nil {
			err = r.replayLD(&lt)
		}
		serialR2 := r.exp.R2Computed - r.exp.R2Duplicated
		if err != nil || !sameResults(res, r.ref.Results) || s.OmegaScores != r.exp.OmegaScores ||
			s.R2Computed != serialR2 || lt.r2Pairs != serialR2 {
			failed++
			continue
		}
		st = s
		sum.grid += lt.grid
		sum.advance += lt.advance
		sum.kernel += lt.kernel
		sum.r2 += lt.r2
	}
	k := float64(half)
	grid, advance, kernel, r2 := sum.grid/k, sum.advance/k, sum.kernel/k, sum.r2/k
	overhead := mean(tracedOps) - mean(e2e.opSeconds)

	// The engine's own shard spans, through the public Observer.
	if r.cfg.Threads > 1 {
		var util, skew []float64
		for i := 0; i < half; i++ {
			runtime.GC()
			o := &shardObserver{}
			cfg := r.cfg
			cfg.Observer = o
			t0 := time.Now()
			rep, err := omegago.Scan(r.ds, cfg)
			wall := time.Since(t0).Seconds()
			attempted++
			if err != nil || !r.check(rep) || len(o.shards) == 0 {
				failed++
				continue
			}
			busy, maxBusy := 0.0, 0.0
			for _, d := range o.shards {
				busy += d.Seconds()
				maxBusy = math.Max(maxBusy, d.Seconds())
			}
			util = append(util, busy/(wall*float64(r.cfg.Threads)))
			skew = append(skew, maxBusy/(busy/float64(len(o.shards))))
		}
		m.set("sched.cpu_util", mean(util), "ratio")
		m.set("sched.shard_skew", mean(skew), "ratio")
		m.set("sched.dup_ratio", float64(r.exp.R2Duplicated)/float64(r.exp.R2Computed), "ratio")
	}

	serialR2 := float64(r.exp.R2Computed - r.exp.R2Duplicated)
	m.set("ld.r2_computed", float64(r.exp.R2Computed), "count")
	m.set("ld.r2_reused", float64(r.exp.R2Reused), "count")
	m.set("ld.r2_s", r2, "s")
	m.set("ld.ns_per_r2", r2/serialR2*1e9, "ns")
	m.set("dp.advance_s", advance-r2, "s")
	m.set("omega.grid_s", grid, "s")
	m.set("omega.scores", float64(st.OmegaScores), "count")
	m.set("omega.kernel_s", kernel, "s")
	m.set("omega.ns_per_score", kernel/float64(st.OmegaScores)*1e9, "ns")
	m.set("omega.blocked_regions", float64(st.KernelBlocked), "count")
	m.set("omega.scalar_regions", float64(st.KernelScalar), "count")
	m.set("sched.r2_duplicated", float64(r.exp.R2Duplicated), "count")
	m.set("trace.overhead_s", overhead, "s")

	at := &attribution{
		title: fmt.Sprintf("resident scan, %d threads; layers from the serial replay, mean of %d ops", r.cfg.Threads, half),
		total: mean(e2e.opSeconds),
	}
	at.add("omega.grid_s", grid)
	at.add("dp.advance_s (self)", advance-r2)
	at.add("ld.r2_s", r2)
	at.add("omega.kernel_s", kernel)
	m.set("sched.unattributed_s", at.unattributed(), "s")
	return &tracedRun{m: m, table: at.lines(overhead), attempted: attempted, failed: failed}, nil
}

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"omegago"
	"omegago/internal/seqio"
)

// stream-vcf: omegago.OpenVCFSource + omegago.ScanStream over a VCF
// written at setup, with a light grid and window — the only workload
// dominated by internal/seqio text parsing and the stream double
// buffer.
func setupStreamVCF(seed int64, dir string, _ int) (instance, error) {
	ds, err := omegago.Simulate(omegago.SimConfig{
		SampleSize: 100, Replicates: 1, SegSites: 20000, Seed: seed,
	}, 1e6)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "input.vcf")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := seqio.WriteVCF(f, "chr1", ds); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	s := &streamVCF{path: path, size: info.Size(), cfg: omegago.Config{GridSize: 100, MaxWindow: 2000}}
	// The reference: a resident scan of the same file loaded with LoadVCF.
	f, err = os.Open(path)
	if err != nil {
		return nil, err
	}
	resident, err := omegago.LoadVCF(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("reference load: %w", err)
	}
	if s.ref, err = omegago.Scan(resident, s.cfg); err != nil {
		return nil, fmt.Errorf("reference scan: %w", err)
	}
	// The first streamed scan fixes the per-op stream accounting.
	if _, s.exp, err = s.op(); err != nil {
		return nil, err
	}
	return s, nil
}

type streamVCF struct {
	path string
	size int64
	cfg  omegago.Config
	ref  *omegago.Report // resident scan of the LoadVCF'd file
	exp  *omegago.Report // first streamed scan
}

func (s *streamVCF) close() {}

func (s *streamVCF) warmup() error {
	_, _, err := s.op()
	return err
}

// op opens the VCF and streams one scan over it; it returns the time
// the open took (the metadata pass) and the report.
func (s *streamVCF) op() (float64, *omegago.Report, error) {
	t0 := time.Now()
	src, err := omegago.OpenVCFSource(s.path)
	if err != nil {
		return 0, nil, err
	}
	open := time.Since(t0).Seconds()
	defer src.Close()
	rep, err := omegago.ScanStream(src, s.cfg)
	return open, rep, err
}

func (s *streamVCF) check(rep *omegago.Report) bool {
	return sameResults(rep.Results, s.ref.Results) &&
		rep.OmegaScores == s.ref.OmegaScores && rep.R2Computed == s.ref.R2Computed &&
		rep.StreamBytesRead == s.exp.StreamBytesRead && rep.StreamChunks == s.exp.StreamChunks
}

func (s *streamVCF) work() map[string]int64 {
	return map[string]int64{
		"ld.r2_computed":    s.exp.R2Computed,
		"omega.scores":      s.exp.OmegaScores,
		"stream.bytes_read": s.exp.StreamBytesRead,
		"stream.chunks":     int64(s.exp.StreamChunks),
	}
}

func (s *streamVCF) timed(n int) (*phase, error) {
	ph := serialPhase(n, s.scan, s.check)
	ph.work = s.work()
	return ph, nil
}

// scan is one op without the open time split out.
func (s *streamVCF) scan() (*omegago.Report, error) {
	_, rep, err := s.op()
	return rep, err
}

func (s *streamVCF) traced(n int) (*tracedRun, error) {
	half := (n + 1) / 2
	m := metrics{}
	failed, attempted := 0, 0

	gc := startGC()
	e2e := serialPhase(half, s.scan, s.check)
	gc.report(m, half)
	attempted += half
	failed += e2e.failed

	var open, load, stall, ldS, omegaS, tracedOps []float64
	for i := 0; i < half; i++ {
		runtime.GC()
		t0 := time.Now()
		o, rep, err := s.op()
		tracedOps = append(tracedOps, time.Since(t0).Seconds())
		attempted++
		if err != nil || !s.check(rep) {
			failed++
			continue
		}
		open = append(open, o)
		load = append(load, rep.StreamLoadSeconds)
		stall = append(stall, rep.StreamStallSeconds)
		ldS = append(ldS, rep.LDSeconds)
		omegaS = append(omegaS, rep.OmegaSeconds)
	}
	overhead := mean(tracedOps) - mean(e2e.opSeconds)
	mib := float64(s.size) / (1 << 20)
	m.set("seqio.vcf_open_s", mean(open), "s")
	m.set("seqio.vcf_parse_mib_per_s", mib/mean(open), "MiB/s")
	m.set("stream.load_s", mean(load), "s")
	m.set("stream.stall_s", mean(stall), "s")
	overlap := 0.0
	if l := mean(load); l > 0 {
		overlap = (l - mean(stall)) / l
	}
	m.set("stream.overlap_ratio", overlap, "ratio")
	m.set("stream.chunks", float64(s.exp.StreamChunks), "count")
	m.set("stream.bytes_read", float64(s.exp.StreamBytesRead), "bytes")
	m.set("ld.r2_computed", float64(s.exp.R2Computed), "count")
	m.set("ld.r2_reused", float64(s.exp.R2Reused), "count")
	m.set("ld.r2_s", mean(ldS), "s")
	m.set("omega.scores", float64(s.exp.OmegaScores), "count")
	m.set("omega.kernel_s", mean(omegaS), "s")
	m.set("ld.ns_per_r2", mean(ldS)/float64(s.exp.R2Computed)*1e9, "ns")
	m.set("omega.ns_per_score", mean(omegaS)/float64(s.exp.OmegaScores)*1e9, "ns")
	m.set("omega.blocked_regions", float64(s.exp.OmegaKernelBlocked), "count")
	m.set("omega.scalar_regions", float64(s.exp.OmegaKernelScalar), "count")
	m.set("trace.overhead_s", overhead, "s")

	at := &attribution{
		title: fmt.Sprintf("streamed VCF scan (%.1f MiB), mean of %d ops; LD and ω from the scan report", mib, half),
		total: mean(e2e.opSeconds),
	}
	at.add("seqio.vcf_open_s (metadata pass)", mean(open))
	at.add("stream.stall_s (load not hidden)", mean(stall))
	at.add("ld.r2_s (LD + DP)", mean(ldS))
	at.add("omega.kernel_s", mean(omegaS))
	m.set("sched.unattributed_s", at.unattributed(), "s")
	return &tracedRun{m: m, table: at.lines(overhead), attempted: attempted, failed: failed}, nil
}

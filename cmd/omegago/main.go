// Command omegago is an OmegaPlus-style selective sweep scanner.
//
// It reads a SNP alignment (ms, FASTA, or VCF format), computes the
// maximum ω statistic at a grid of positions along the region, and
// prints one row per grid position plus the best candidate.
//
// Usage:
//
//	omegago -input data.ms -format ms -length 1000000 -grid 200 -maxwin 20000
//	omegago -input chr1.vcf -format vcf -grid 1000 -minwin 1000 -maxwin 50000
//	omegago -input aln.fa -format fasta -backend gpu -threads 4
//	omegago -input data.ms -threads 8 -trace scan.trace
//	omegago -input chr1.bitmat -format bitmat -stream -maxwin 50000
//
// With -stream the input is scanned out-of-core: chunks of SNP rows are
// parsed (or, for bitmat files, memory-mapped) while the previous chunk
// is being scanned, so memory stays bounded by the chunk size instead of
// the input size. Streaming is cpu-backend only; see docs/TUTORIAL.md
// for the whole-chromosome walkthrough and cmd/convert for producing
// bitmat files.
//
// Multithreaded CPU scans cut the grid — with -stream, each chunk — into
// -threads cost-balanced shards, each sliding its own DP matrix, so LD
// and ω both run in parallel. Results are identical at every thread
// count; see docs/ARCHITECTURE.md. The -sched flag is deprecated: its
// values are still accepted, with a warning, and ignored.
//
// Backends: cpu (default), gpu (simulated Tesla K80 / Radeon HD8750M),
// fpga (simulated Alveo U200 / ZCU102). Accelerator backends print the
// modeled device-time breakdown alongside bit-identical results.
package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"omegago"
	"omegago/api"
	"omegago/internal/fpga"
	"omegago/internal/gpu"
	"omegago/internal/report"
	"omegago/internal/seqio"
	"omegago/internal/stats"
	"omegago/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("omegago: ")

	// Subcommands dispatch before flag.Parse: `omegago plan` and
	// `omegago scenario` own their flag sets (plan.go, scenario.go).
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "plan":
			os.Exit(runPlan(os.Args[2:]))
		case "scenario":
			os.Exit(runScenario(os.Args[2:]))
		}
	}

	var (
		input       = flag.String("input", "", "input file (required)")
		format      = flag.String("format", "ms", "input format: ms, fasta, vcf, bitmat")
		stream      = flag.Bool("stream", false, "scan out-of-core: read the input in chunks, double-buffered against compute (cpu backend)")
		chunkSNPs   = flag.Int("chunk-snps", 0, "SNP rows per streamed chunk (0 = four times the widest grid region; implies nothing without -stream)")
		length      = flag.Float64("length", 1e6, "region length in bp (ms format only)")
		grid        = flag.Int("grid", 100, "number of ω positions")
		minwin      = flag.Float64("minwin", 0, "minimum window span in bp")
		maxwin      = flag.Float64("maxwin", 0, "maximum border distance from the ω position in bp (0 = unbounded)")
		threads     = flag.Int("threads", 1, "CPU threads (cpu backend): parallel shards of the grid, or of each chunk with -stream")
		sched       = flag.String("sched", "auto", "deprecated and ignored (accepts auto, snapshot, sharded); -threads alone sets the parallelism")
		omegaKernel = flag.String("omega-kernel", "auto", "CPU ω kernel: scalar, blocked, auto (per-region dispatch)")
		kernelNthr  = flag.Int("kernel-nthr", 0, "auto ω-kernel dispatch threshold in border combinations per region (0 = built-in default)")
		backend     = flag.String("backend", "cpu", "backend: cpu, gpu, fpga")
		calib       = flag.String("calib", "", "device cost-model calibration table (JSON, written by `omegabench calibrate`; default embedded table)")
		device      = flag.String("device", "", "accelerator device: k80, hd8750m, alveo, zcu102")
		deviceFile  = flag.String("device-file", "", "JSON GPU device profile (overrides -device for the gpu backend)")
		kernel      = flag.String("kernel", "dynamic", "GPU kernel: 1, 2, dynamic")
		gemmLD      = flag.Bool("gemm-ld", false, "batch LD through the BLIS-style bit-matrix GEMM (cpu backend)")
		top         = flag.Int("top", 5, "number of top candidates to print")
		quiet       = flag.Bool("quiet", false, "print only the candidate summary")
		reportOut   = flag.String("report", "", "write an OmegaPlus-style report file to this path")
		asJSON      = flag.Bool("json", false, "print results as JSON instead of the tab layout")
		repl        = flag.String("replicate", "1", "ms replicate to scan: a 1-based index, or 'all' for a per-replicate summary")
		allReps     = flag.Bool("all-replicates", false, "scan every ms replicate through the concurrent batch pipeline (same as -replicate all)")
		batchWork   = flag.Int("batch-workers", 0, "concurrent replicate scans in batch mode (0 = GOMAXPROCS)")
		timeout     = flag.Duration("timeout", 0, "abort the scan after this duration, e.g. 30s (0 = no limit)")
		htmlOut     = flag.String("html", "", "write a self-contained HTML report (SVG ω landscape) to this path")
		traceOut    = flag.String("trace", "", "write a Chrome trace-event JSON of the run's phases to this path")
		progress    = flag.Bool("progress", false, "render a live progress line (positions, ω/s, ETA) on stderr")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics, /debug/vars and /debug/pprof on this address (e.g. :9090 or 127.0.0.1:0)")
	)
	flag.Parse()
	if *input == "" {
		flag.Usage()
		os.Exit(exitUsage)
	}

	var tr *trace.Tracer
	if *traceOut != "" {
		tr = trace.NewTracer()
	}

	f, closer, err := seqio.OpenMaybeGzip(*input)
	if err != nil {
		fatal(err)
	}
	defer closer()

	if *allReps {
		*repl = "all"
	}

	if *allReps && *stream {
		log.Printf("warning: -stream does not apply to batch mode; scanning replicates resident")
		*stream = false
	}

	loadDone := tr.Begin("load+parse")
	var ds *omegago.Dataset
	var batch []*omegago.Dataset
	var src omegago.ChunkSource
	switch strings.ToLower(*format) {
	case "ms":
		switch strings.ToLower(*repl) {
		case "1":
			if *stream {
				// Keep the sample-major text resident; defer bit-packing to
				// the chunk loader.
				reps, lerr := seqio.ParseMS(f)
				if lerr != nil {
					fatalf(exitInput, "%v", lerr)
				}
				if len(reps) == 0 {
					fatalf(exitInput, "ms stream holds no replicates")
				}
				src, err = seqio.NewMSSource(reps[0], *length)
			} else {
				ds, err = omegago.LoadMS(f, *length)
			}
		case "all":
			batch, err = omegago.LoadMSAll(f, *length)
		default:
			idx, cerr := strconv.Atoi(*repl)
			if cerr != nil || idx < 1 {
				fatalf(exitUsage, "bad -replicate %q (want a 1-based index or 'all')", *repl)
			}
			if *stream {
				reps, lerr := seqio.ParseMS(f)
				if lerr != nil {
					fatalf(exitInput, "%v", lerr)
				}
				if idx > len(reps) {
					fatalf(exitInput, "replicate %d requested, stream holds %d", idx, len(reps))
				}
				src, err = seqio.NewMSSource(reps[idx-1], *length)
				break
			}
			all, lerr := omegago.LoadMSAll(f, *length)
			if lerr != nil {
				fatalf(exitInput, "%v", lerr)
			}
			if idx > len(all) {
				fatalf(exitInput, "replicate %d requested, stream holds %d", idx, len(all))
			}
			ds = all[idx-1]
			if ds == nil {
				fatalf(exitInput, "replicate %d has no segregating sites", idx)
			}
		}
	case "fasta", "fa":
		ds, err = omegago.LoadFASTA(f)
		if err == nil && *stream {
			// No streaming FASTA parser; wrap the resident alignment so the
			// scan still exercises the chunked pipeline.
			src, err = omegago.NewDatasetSource(ds)
		}
	case "vcf":
		if *stream {
			src, err = omegago.OpenVCFSource(*input)
		} else {
			ds, err = omegago.LoadVCF(f)
		}
	case "bitmat":
		if *stream {
			src, err = omegago.OpenBitmatSource(*input)
		} else {
			ds, err = omegago.LoadBitmat(f)
		}
	default:
		fatalf(exitUsage, "unknown format %q (want ms, fasta, vcf, or bitmat)", *format)
	}
	if err != nil {
		fatalf(exitInput, "%v", err)
	}
	if src != nil {
		defer src.Close()
	}
	var nSNPs, nSamples int
	switch {
	case src != nil:
		m := src.Meta()
		nSNPs, nSamples = m.NumSNPs, m.Samples
	case ds != nil:
		nSNPs, nSamples = ds.NumSNPs(), ds.Samples()
	}
	loadArgs := map[string]any{}
	if src != nil || ds != nil {
		loadArgs["snps"] = nSNPs
		loadArgs["samples"] = nSamples
	}
	loadDone(loadArgs)

	cfg := omegago.Config{
		GridSize:   *grid,
		MinWindow:  *minwin,
		MaxWindow:  *maxwin,
		Threads:    *threads,
		UseGEMMLD:  *gemmLD,
		ChunkSNPs:  *chunkSNPs,
		KernelNthr: *kernelNthr,
	}
	if err := api.CheckScheduler(strings.ToLower(*sched)); err != nil {
		fatalf(exitUsage, "%v", err)
	}
	flag.Visit(func(fl *flag.Flag) {
		if fl.Name == "sched" {
			log.Printf("warning: -sched is deprecated and ignored; -threads alone sets the parallelism")
		}
	})
	cfg.OmegaKernel, err = omegago.ParseOmegaKernel(strings.ToLower(*omegaKernel))
	if err != nil {
		fatalf(exitUsage, "%v", err)
	}
	cfg.Backend, err = omegago.ParseBackend(strings.ToLower(*backend))
	if err != nil {
		fatalf(exitUsage, "%v", err)
	}
	if *calib != "" {
		table, cerr := omegago.LoadCalibration(*calib)
		if cerr != nil {
			fatal(cerr)
		}
		cfg.Calibration = &table
		if cfg.Backend == omegago.BackendCPU {
			log.Printf("warning: -calib prices modeled accelerator seconds; the cpu backend measures its times")
		}
	}
	switch cfg.Backend {
	case omegago.BackendGPU:
		if *deviceFile != "" {
			df, err := os.Open(*deviceFile)
			if err != nil {
				fatalf(exitInput, "%v", err)
			}
			d, derr := gpu.DeviceFromJSON(df)
			df.Close()
			if derr != nil {
				fatalf(exitInput, "%v", derr)
			}
			cfg.GPUDevice = &d
		} else {
			switch strings.ToLower(*device) {
			case "", "k80":
				d := gpu.TeslaK80
				cfg.GPUDevice = &d
			case "hd8750m", "radeon":
				d := gpu.RadeonHD8750M
				cfg.GPUDevice = &d
			default:
				fatalf(exitUsage, "unknown GPU device %q (want k80 or hd8750m)", *device)
			}
		}
		switch strings.ToLower(*kernel) {
		case "1", "i":
			cfg.GPUKernel = gpu.KernelI
		case "2", "ii":
			cfg.GPUKernel = gpu.KernelII
		case "dynamic", "d":
			cfg.GPUKernel = gpu.Dynamic
		default:
			fatalf(exitUsage, "unknown kernel %q (want 1, 2, or dynamic)", *kernel)
		}
	case omegago.BackendFPGA:
		switch strings.ToLower(*device) {
		case "", "alveo", "u200":
			d := fpga.AlveoU200
			cfg.FPGADevice = &d
		case "zcu102", "zcu":
			d := fpga.ZCU102
			cfg.FPGADevice = &d
		default:
			fatalf(exitUsage, "unknown FPGA device %q (want alveo or zcu102)", *device)
		}
	}
	cfg.BatchWorkers = *batchWork

	// Observability: the tracer and the -progress ticker share the one
	// Observer slot; -metrics-addr wires a live registry and serves it.
	var observers []omegago.Observer
	if tr != nil {
		observers = append(observers, tr)
	}
	if *progress {
		observers = append(observers, omegago.NewProgressWriter(os.Stderr, 200*time.Millisecond))
	}
	cfg.Observer = omegago.MultiObserver(observers...)
	if *metricsAddr != "" {
		reg := omegago.NewRegistry()
		cfg.Metrics = omegago.NewMetrics(reg)
		addr, merr := serveMetrics(*metricsAddr, reg)
		if merr != nil {
			fatal(merr)
		}
		log.Printf("metrics listening on http://%s/metrics (expvar at /debug/vars, pprof at /debug/pprof/)", addr)
	}

	if *stream && cfg.Backend != omegago.BackendCPU {
		fatalf(exitUsage, "-stream requires -backend cpu (the simulated accelerators scan resident alignments)")
	}
	if *chunkSNPs != 0 && !*stream {
		log.Printf("warning: -chunk-snps only applies with -stream; ignored")
	}

	// CPU-only flags silently do nothing on accelerator backends; say so
	// on stderr instead of swallowing them.
	if cfg.Backend != omegago.BackendCPU {
		set := map[string]bool{}
		flag.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
		for _, name := range []string{"gemm-ld", "omega-kernel"} {
			if set[name] {
				log.Printf("warning: -%s only applies to the cpu backend; ignored with -backend %s", name, *backend)
			}
		}
		if set["threads"] && cfg.Backend == omegago.BackendFPGA {
			log.Printf("warning: -threads is ignored by the fpga backend")
		}
	}
	if *allReps && strings.ToLower(*format) != "ms" {
		log.Printf("warning: -all-replicates only applies to the ms format; scanning the single %s dataset", *format)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if batch != nil {
		workers := cfg.BatchWorkers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > len(batch) {
			workers = len(batch)
		}
		if !*asJSON {
			fmt.Printf("# omegago batch scan: %d replicates, backend=%s, workers=%d\n",
				len(batch), cfg.Backend, workers)
		}
		scanDone := tr.Begin("batch-scan")
		brep, err := omegago.ScanBatch(ctx, batch, cfg)
		if err != nil {
			fatal(err)
		}
		scanDone(map[string]any{"replicates": len(batch), "workers": workers})
		if *asJSON {
			// Canonical api wire form, same marshaller omegad uses for
			// batch jobs: `omegago -all-replicates -json` and an
			// HTTP-submitted batch over the same replicates are
			// byte-identical outside the timing block.
			batchHash, herr := omegago.BatchContentHash(batch)
			if herr != nil {
				fatal(herr)
			}
			hashes := make([]string, len(batch))
			for i, d := range batch {
				if d == nil {
					hashes[i] = api.SkippedDatasetHash
					continue
				}
				h, herr := omegago.DatasetContentHash(d)
				if herr != nil {
					fatal(herr)
				}
				hashes[i] = hex.EncodeToString(h[:])
			}
			out, jerr := brep.APIBatchReport("", cfg.Backend.String(),
				hex.EncodeToString(batchHash[:]), hashes).Encode()
			if jerr != nil {
				fatal(jerr)
			}
			if _, err := os.Stdout.Write(out); err != nil {
				fatal(err)
			}
			return
		}
		fmt.Println("# replicate\tsnps\tbest_position\tmax_omega")
		for i, item := range brep.Replicates {
			switch {
			case item.Skipped:
				fmt.Printf("%d\t0\t-\t-\n", i+1)
			case item.Err != nil:
				log.Printf("warning: replicate %d failed: %v", i+1, item.Err)
				fmt.Printf("%d\t%d\t-\t-\n", i+1, batch[i].NumSNPs())
			default:
				best, ok := item.Report.Best()
				if !ok {
					fmt.Printf("%d\t%d\t-\t-\n", i+1, batch[i].NumSNPs())
					continue
				}
				fmt.Printf("%d\t%d\t%.2f\t%.6f\n", i+1, batch[i].NumSNPs(), best.Center, best.MaxOmega)
			}
		}
		fmt.Printf("# %d scanned, %d skipped, %d failed; %s ω scores, %s r² computed; wall %.3fs\n",
			brep.Scanned, brep.Skipped, brep.Failed,
			stats.FormatSI(float64(brep.OmegaScores)), stats.FormatSI(float64(brep.R2Computed)),
			brep.WallSeconds)
		if p50, p95, ok := brep.ReplicateSeconds(); ok {
			fmt.Printf("# replicate wall-clock: p50 %.4fs, p95 %.4fs\n", p50, p95)
		}
		if best, idx, ok := brep.Best(); ok {
			fmt.Printf("# batch best: replicate %d, position %.2f, ω = %.4f\n",
				idx+1, best.Center, best.MaxOmega)
		}
		return
	}

	mode := "scan"
	if src != nil {
		mode = "streamed scan"
	}
	if !*asJSON {
		fmt.Printf("# omegago %s: %d SNPs, %d samples, backend=%s\n",
			mode, nSNPs, nSamples, cfg.Backend)
	}
	scanDone := tr.Begin("scan")
	var rep *omegago.Report
	if src != nil {
		rep, err = omegago.ScanStreamContext(ctx, src, cfg)
	} else {
		rep, err = omegago.ScanContext(ctx, ds, cfg)
	}
	if err != nil {
		if ctx.Err() != nil {
			fatalf(exitTimeout, "scan aborted after -timeout %v: %v", *timeout, err)
		}
		fatal(err)
	}
	scanDone(map[string]any{
		"omega_scores":  rep.OmegaScores,
		"ld_seconds":    rep.LDSeconds,
		"omega_seconds": rep.OmegaSeconds,
	})
	defer func() {
		if tr == nil {
			return
		}
		tf, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := tr.ExportChromeJSON(tf); err != nil {
			fatal(err)
		}
		if err := tf.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("# trace written to %s\n%s", *traceOut, tr.Summary())
	}()

	if *reportOut != "" {
		rf, err := os.Create(*reportOut)
		if err != nil {
			fatal(err)
		}
		label := fmt.Sprintf("omegago %s backend=%s grid=%d", *input, cfg.Backend, cfg.GridSize)
		if err := rep.WriteReport(rf, label); err != nil {
			fatal(err)
		}
		if err := rf.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("# report written to %s\n", *reportOut)
	}

	if *htmlOut != "" {
		hf, err := os.Create(*htmlOut)
		if err != nil {
			fatal(err)
		}
		meta := report.Meta{
			Title:   fmt.Sprintf("omegago scan of %s", *input),
			Dataset: *input, Backend: rep.Backend.String(),
			SNPs: nSNPs, Samples: nSamples, GridSize: cfg.GridSize,
			OmegaScans: rep.OmegaScores,
			Runtime:    fmt.Sprintf("%.3fs wall", rep.WallSeconds),
		}
		if err := report.HTML(hf, meta, rep.Results); err != nil {
			fatal(err)
		}
		if err := hf.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("# HTML report written to %s\n", *htmlOut)
	}

	if *asJSON {
		// The canonical api wire form — the same marshaller omegad
		// responds with, so `omegago -json` and an HTTP-submitted scan of
		// the same input are byte-identical outside the timing block.
		hash := ""
		switch {
		case ds != nil:
			if h, herr := omegago.DatasetContentHash(ds); herr == nil {
				hash = hex.EncodeToString(h[:])
			}
		case src != nil:
			if bs, ok := src.(*omegago.BitmatSource); ok {
				h := bs.ContentHash()
				hash = hex.EncodeToString(h[:])
			}
		}
		out, jerr := rep.APIReport("", hash).Encode()
		if jerr != nil {
			fatal(jerr)
		}
		if _, err := os.Stdout.Write(out); err != nil {
			fatal(err)
		}
		return
	}

	if !*quiet {
		fmt.Println("# position\tmax_omega\twin_left\twin_right\tscores")
		for _, r := range rep.Results {
			if !r.Valid {
				fmt.Printf("%.2f\t-\t-\t-\t0\n", r.Center)
				continue
			}
			fmt.Printf("%.2f\t%.6f\t%.2f\t%.2f\t%d\n",
				r.Center, r.MaxOmega, r.LeftPos, r.RightPos, r.Scores)
		}
	}

	dup := ""
	if rep.R2Duplicated > 0 {
		site := "shard"
		if rep.StreamChunks > 0 {
			site = "chunk"
			if cfg.Threads > 1 {
				site = "chunk and shard"
			}
		}
		dup = fmt.Sprintf(", %s duplicated at %s boundaries", stats.FormatSI(float64(rep.R2Duplicated)), site)
	}
	fmt.Printf("\n# %d grid positions, %s ω scores, %s r² computed (%s reused%s)\n",
		len(rep.Results),
		stats.FormatSI(float64(rep.OmegaScores)),
		stats.FormatSI(float64(rep.R2Computed)),
		stats.FormatSI(float64(rep.R2Reused)), dup)
	if rep.Backend == omegago.BackendCPU {
		fmt.Printf("# measured: LD %.3fs, ω %.3fs, wall %.3fs (%s ω/s)\n",
			rep.LDSeconds, rep.OmegaSeconds, rep.WallSeconds,
			stats.FormatSI(float64(rep.OmegaScores)/rep.OmegaSeconds))
		if rep.OmegaKernelScalar+rep.OmegaKernelBlocked > 0 {
			fmt.Printf("# ω kernel dispatch: %d scalar, %d blocked regions\n",
				rep.OmegaKernelScalar, rep.OmegaKernelBlocked)
		}
	} else {
		fmt.Printf("# modeled device time: LD %.4fs, ω %.4fs (%s ω/s); host simulation wall %.3fs\n",
			rep.LDSeconds, rep.OmegaSeconds,
			stats.FormatSI(float64(rep.OmegaScores)/rep.OmegaSeconds), rep.WallSeconds)
		fmt.Printf("# cost model: calibration %q, schema v%d\n", rep.CalibrationID, rep.ModelVersion)
	}
	if rep.StreamChunks > 0 {
		zc := ""
		if bs, ok := src.(*omegago.BitmatSource); ok && bs.Mapped() {
			zc = ", rows mmap-adopted zero-copy"
		}
		fmt.Printf("# streamed: %d chunks, %sB read, %s SNPs allele-compressed%s; load %.3fs, stall %.3fs (%.0f%% of I/O hidden behind compute)\n",
			rep.StreamChunks,
			stats.FormatSI(float64(rep.StreamBytesRead)),
			stats.FormatSI(float64(rep.StreamCompressedSNPs)), zc,
			rep.StreamLoadSeconds, rep.StreamStallSeconds,
			100*rep.StreamOverlapRatio())
	}

	type cand struct {
		omegago.Result
	}
	sorted := make([]cand, 0, len(rep.Results))
	for _, r := range rep.Results {
		if r.Valid {
			sorted = append(sorted, cand{r})
		}
	}
	for i := 0; i < len(sorted); i++ {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j].MaxOmega > sorted[i].MaxOmega {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	n := *top
	if n > len(sorted) {
		n = len(sorted)
	}
	fmt.Printf("# top %d sweep candidates:\n", n)
	for i := 0; i < n; i++ {
		c := sorted[i]
		fmt.Printf("#   %2d. position %.2f  ω = %.4f  window [%.2f, %.2f]\n",
			i+1, c.Center, c.MaxOmega, c.LeftPos, c.RightPos)
	}
}

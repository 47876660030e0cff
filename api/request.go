package api

import (
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
)

// ScanParams is the wire form of a scan configuration. Enum-valued
// fields travel as their canonical registry names (the same spellings
// the CLI flags accept — omegago.ConfigFromParams parses them through
// the same registries), and zero values mean "default", mirroring
// omegago.Config.
type ScanParams struct {
	// GridSize is the number of equidistant ω positions (0 = 100).
	GridSize int `json:"grid_size,omitempty"`
	// MinWindow is the minimum total window span in bp.
	MinWindow float64 `json:"min_window,omitempty"`
	// MaxWindow is the maximum border distance from the grid position
	// in bp, per side (0 = unbounded).
	MaxWindow float64 `json:"max_window,omitempty"`
	// MaxSNPsPerSide caps the SNPs per sub-window (0 = unbounded).
	MaxSNPsPerSide int `json:"max_snps_per_side,omitempty"`
	// Backend selects the engine: "cpu", "gpu-sim", "fpga-sim"
	// ("" = cpu).
	Backend string `json:"backend,omitempty"`
	// Scheduler is ignored: the CPU backend has one scan engine, which
	// Threads parallelizes. Requests written for earlier versions still
	// decode — "", "auto", "snapshot" and "sharded" are accepted
	// (CheckScheduler) — but the field selects nothing and
	// omegago.ParamsFromConfig never emits it.
	Scheduler string `json:"scheduler,omitempty"`
	// OmegaKernel selects the CPU ω kernel: "auto", "scalar",
	// "blocked" ("" = auto).
	OmegaKernel string `json:"omega_kernel,omitempty"`
	// KernelNthr overrides the auto-dispatch workload threshold in
	// border combinations per region (0 = built-in default).
	KernelNthr int `json:"kernel_nthr,omitempty"`
	// Threads parallelizes the CPU backend (0 = 1).
	Threads int `json:"threads,omitempty"`
	// UseGEMMLD batches CPU LD through the blocked bit-matrix GEMM.
	UseGEMMLD bool `json:"gemm_ld,omitempty"`
	// ChunkSNPs bounds SNP rows per streamed chunk (streamed scans).
	ChunkSNPs int `json:"chunk_snps,omitempty"`
}

// legacySchedulers are the spellings the retired scheduler field and
// the CLI's -sched flag accepted.
var legacySchedulers = []string{"auto", "snapshot", "sharded"}

// CheckScheduler validates a ScanParams.Scheduler (or -sched) value:
// "" or one of the spellings earlier versions accepted. The value
// selects nothing; the check keeps a misspelling an error.
func CheckScheduler(name string) error {
	if name == "" || slices.Contains(legacySchedulers, name) {
		return nil
	}
	return fmt.Errorf("unknown scheduler %q (want %s)", name, strings.Join(legacySchedulers, ", "))
}

// DatasetRef names the dataset of a scan request in exactly one of
// three ways, in service-resolution order: an inline upload, a hash
// reference to a dataset the server already holds, or a server-local
// path (which the operator must enable).
type DatasetRef struct {
	// BitmatBase64 is an inline dataset upload: the standard-base64
	// bytes of a bitmat container (docs/FORMATS.md §2). The server
	// stores it under its content hash, so later requests can refer to
	// it by ContentHash alone.
	BitmatBase64 string `json:"bitmat_base64,omitempty"`
	// ContentHash is the lowercase-hex SHA-256 bitmat content hash of
	// a dataset previously uploaded to (or scanned by) the server.
	ContentHash string `json:"content_hash,omitempty"`
	// Path is a server-local input file; rejected unless the server
	// runs with path access enabled.
	Path string `json:"path,omitempty"`
	// Format is the Path file's format: "ms", "fasta", "vcf", or
	// "bitmat" ("" = bitmat). Ignored for the other reference kinds.
	Format string `json:"format,omitempty"`
	// RegionLength scales ms-format positions to base pairs
	// (0 = 1e6). Ignored for the other formats.
	RegionLength float64 `json:"region_length,omitempty"`
}

// Validate reports the first structural defect of the reference:
// not exactly one of the three kinds set, or a malformed hash.
func (d DatasetRef) Validate() error {
	set := 0
	for _, present := range []bool{d.BitmatBase64 != "", d.ContentHash != "", d.Path != ""} {
		if present {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("api: dataset must set exactly one of bitmat_base64, content_hash, path (got %d)", set)
	}
	if d.ContentHash != "" {
		if b, err := hex.DecodeString(d.ContentHash); err != nil || len(b) != 32 {
			return fmt.Errorf("api: content_hash %q is not 64 hex digits", d.ContentHash)
		}
	}
	return nil
}

// Job priorities a ScanRequest may ask for. The worker pool drains
// "high" before "normal" before "low" on a best-effort basis;
// admission control is priority-blind.
const (
	// PriorityHigh jobs are picked first by free workers.
	PriorityHigh = "high"
	// PriorityNormal is the default.
	PriorityNormal = "normal"
	// PriorityLow jobs run when no higher queue has work.
	PriorityLow = "low"
)

// Job kinds a ScanRequest may name. Every kind runs through the same
// admission queue, worker pool, result store and caching rules; they
// differ in how the dataset reference is expanded and in the shape of
// the result (docs/API.md "Job kinds").
const (
	// KindScan is a whole-dataset resident scan — one dataset in, one
	// ScanReport out. The default when the request names no kind.
	KindScan = "scan"
	// KindBatch scans N replicates through the concurrent batch
	// pipeline (the service-side analogue of `omegago -all-replicates`):
	// an ms path reference expands to every replicate in the file, a
	// datasets list names each replicate explicitly. The result is a
	// BatchReport with per-replicate rows and error isolation.
	KindBatch = "batch"
	// KindStream scans the stored bitmat blob of the dataset out of
	// core with ScanStream: chunked rows, double-buffered I/O, chunk-
	// level progress. CPU backend only. The result is a ScanReport with
	// the stream_* counters set.
	KindStream = "stream"
)

// SkippedDatasetHash is the all-zero content hash a batch datasets
// list uses as the placeholder for a skipped replicate (an ms
// replicate with zero segregating sites). It keeps replicate indices —
// and therefore the batch content identity — stable when a request is
// normalized for the durable store: SHA-256 never produces the
// all-zero digest, so the placeholder cannot collide with a real
// dataset.
const SkippedDatasetHash = "0000000000000000000000000000000000000000000000000000000000000000"

// ScanRequest is the body of POST /v1/scan: which dataset to scan,
// with which parameters, how urgently, and for at most how long.
type ScanRequest struct {
	// Schema must equal SchemaVersion.
	Schema int `json:"schema"`
	// Kind is the job kind: "scan", "batch", or "stream" ("" = scan).
	Kind string `json:"kind,omitempty"`
	// Dataset names the input (exactly one reference kind set). Batch
	// jobs may set Datasets instead to name each replicate explicitly.
	Dataset DatasetRef `json:"dataset,omitempty"`
	// Datasets names every replicate of a batch job individually (batch
	// kind only, mutually exclusive with Dataset). Each element follows
	// the DatasetRef rules.
	Datasets []DatasetRef `json:"datasets,omitempty"`
	// Params configures the scan; the zero value scans with defaults.
	Params ScanParams `json:"params"`
	// Priority is "high", "normal", or "low" ("" = normal).
	Priority string `json:"priority,omitempty"`
	// DeadlineSeconds bounds the job's run time once started; an
	// exceeded deadline fails the job with CodeTimeout (0 = the
	// server's default deadline).
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	// Label is echoed into the report (free-form, optional).
	Label string `json:"label,omitempty"`
}

// Validate reports the first structural defect of the request —
// schema, kind, dataset reference(s), priority, deadline sign. Scan
// parameters are validated server-side by omegago.Config.Validate,
// which knows the registries.
func (r ScanRequest) Validate() error {
	if err := checkSchema("scan request", r.Schema); err != nil {
		return err
	}
	switch r.Kind {
	case "", KindScan, KindBatch, KindStream:
	default:
		return fmt.Errorf("api: unknown job kind %q (want scan, batch, stream)", r.Kind)
	}
	if len(r.Datasets) > 0 {
		if r.Kind != KindBatch {
			return fmt.Errorf("api: datasets list requires kind %q (got %q)", KindBatch, r.Kind)
		}
		if r.Dataset != (DatasetRef{}) {
			return fmt.Errorf("api: dataset and datasets are mutually exclusive")
		}
		for i, d := range r.Datasets {
			if err := d.Validate(); err != nil {
				return fmt.Errorf("api: datasets[%d]: %w", i, err)
			}
		}
	} else if err := r.Dataset.Validate(); err != nil {
		return err
	}
	switch r.Priority {
	case "", PriorityNormal, PriorityHigh, PriorityLow:
	default:
		return fmt.Errorf("api: unknown priority %q (want high, normal, low)", r.Priority)
	}
	if r.DeadlineSeconds < 0 {
		return fmt.Errorf("api: deadline_seconds %g < 0", r.DeadlineSeconds)
	}
	return nil
}

// Encode renders the request in the canonical byte form.
func (r ScanRequest) Encode() ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return encodeCanonical(r)
}

// DecodeScanRequest strictly parses and validates a request.
func DecodeScanRequest(data []byte) (ScanRequest, error) {
	var r ScanRequest
	if err := decodeStrict(data, &r); err != nil {
		return ScanRequest{}, err
	}
	if err := r.Validate(); err != nil {
		return ScanRequest{}, err
	}
	return r, nil
}

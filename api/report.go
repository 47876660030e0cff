package api

import (
	"encoding/hex"
	"fmt"
)

// ResultRow is one grid position of a scan report: the ω position, the
// maximum ω found there, and the maximizing window. An inadmissible
// position (no window satisfied the constraints) has Valid false and
// omits the ω fields — the JSON analogue of the "-" cells in the
// tab-separated report.
type ResultRow struct {
	// Position is the grid position in bp.
	Position float64 `json:"position"`
	// Valid is false when the position had no admissible window.
	Valid bool `json:"valid"`
	// Omega is the maximum ω statistic at this position.
	Omega float64 `json:"omega,omitempty"`
	// WinLeft / WinRight bound the maximizing window in bp.
	WinLeft  float64 `json:"win_left,omitempty"`
	WinRight float64 `json:"win_right,omitempty"`
	// Scores is the number of ω values evaluated at this position.
	Scores int64 `json:"scores,omitempty"`
}

// Timing carries the measured (or modeled) seconds of a scan. Timings
// are nondeterministic run to run, so Canonical strips them: two scans
// of the same dataset with the same parameters produce byte-identical
// canonical reports regardless of host load.
type Timing struct {
	// LDSeconds / OmegaSeconds split the runtime between the two
	// phases (modeled device time on accelerator backends).
	LDSeconds    float64 `json:"ld_seconds"`
	OmegaSeconds float64 `json:"omega_seconds"`
	// SnapshotSeconds is never emitted: the snapshot scheduler that
	// measured it is retired. It stays decodable so reports written by
	// earlier versions still pass strict decode.
	SnapshotSeconds float64 `json:"snapshot_seconds,omitempty"`
	// WallSeconds is the measured wall-clock time of the scan.
	WallSeconds float64 `json:"wall_seconds"`
	// StreamLoadSeconds / StreamStallSeconds are the chunk loader's
	// cumulative read+parse time and the scan's wait-for-chunk time
	// (streamed scans only).
	StreamLoadSeconds  float64 `json:"stream_load_seconds,omitempty"`
	StreamStallSeconds float64 `json:"stream_stall_seconds,omitempty"`
}

// ScanReport is the machine-readable result of one scan: what
// `omegago -json` prints and GET /v1/jobs/{id}/result returns. The
// deterministic fields (results, work counters, identity stamps) are
// a pure function of (dataset bytes, resolved parameters); Timing is
// the only nondeterministic part and is excluded from Canonical.
type ScanReport struct {
	// Schema must equal SchemaVersion.
	Schema int `json:"schema"`
	// Label is the free-form run label ("" when unset).
	Label string `json:"label,omitempty"`
	// Backend is the canonical engine name that produced the results.
	Backend string `json:"backend"`
	// DatasetHash is the lowercase-hex SHA-256 bitmat content hash of
	// the scanned dataset — the cache identity of the input. Empty when
	// the producer did not compute it (e.g. streamed CLI scans).
	DatasetHash string `json:"dataset_hash,omitempty"`
	// Results holds one row per grid position, in genomic order.
	Results []ResultRow `json:"results"`
	// OmegaScores / R2Computed / R2Reused / R2Duplicated are the work
	// counters (Table III throughput numerators; R2Duplicated counts
	// the r² recomputed at CPU shard and streamed-chunk boundaries).
	OmegaScores  int64 `json:"omega_scores"`
	R2Computed   int64 `json:"r2_computed"`
	R2Reused     int64 `json:"r2_reused"`
	R2Duplicated int64 `json:"r2_duplicated,omitempty"`
	// KernelScalarRegions / KernelBlockedRegions count grid regions per
	// CPU ω-kernel implementation (zero on accelerator backends).
	KernelScalarRegions  int64 `json:"kernel_scalar_regions,omitempty"`
	KernelBlockedRegions int64 `json:"kernel_blocked_regions,omitempty"`
	// StreamChunks / StreamBytesRead / StreamCompressedSNPs account
	// streamed input (zero for whole-file scans).
	StreamChunks         int   `json:"stream_chunks,omitempty"`
	StreamBytesRead      int64 `json:"stream_bytes_read,omitempty"`
	StreamCompressedSNPs int64 `json:"stream_compressed_snps,omitempty"`
	// ModelVersion / CalibrationID stamp the devmodel table that priced
	// an accelerator scan (zero/empty on the CPU backend).
	ModelVersion  int    `json:"model_version,omitempty"`
	CalibrationID string `json:"calibration_id,omitempty"`
	// Timing is the nondeterministic part of the report; nil in
	// canonical form.
	Timing *Timing `json:"timing,omitempty"`
}

// Validate reports the first structural defect of the report.
func (r ScanReport) Validate() error {
	if err := checkSchema("scan report", r.Schema); err != nil {
		return err
	}
	if r.DatasetHash != "" {
		if b, err := hex.DecodeString(r.DatasetHash); err != nil || len(b) != 32 {
			return fmt.Errorf("api: dataset_hash %q is not 64 hex digits", r.DatasetHash)
		}
	}
	return nil
}

// Encode renders the report in the canonical byte form, timings
// included (when present).
func (r ScanReport) Encode() ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return encodeCanonical(r)
}

// Canonical renders the deterministic canonical form: the report with
// Timing stripped. Two scans of identical input with identical resolved
// parameters yield byte-identical Canonical output — the property the
// omegad result cache and the CLI/service equivalence check rely on.
func (r ScanReport) Canonical() ([]byte, error) {
	r.Timing = nil
	return r.Encode()
}

// DecodeScanReport strictly parses and validates a report.
func DecodeScanReport(data []byte) (ScanReport, error) {
	var r ScanReport
	if err := decodeStrict(data, &r); err != nil {
		return ScanReport{}, err
	}
	if err := r.Validate(); err != nil {
		return ScanReport{}, err
	}
	return r, nil
}

package omegago

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"

	"omegago/api"
	"omegago/internal/seqio"
)

// APIReport converts the report to its wire form (api.ScanReport), the
// single Report marshaller every machine-readable boundary shares: the
// CLI's -json flag, WriteReport's row layout, and the omegad service
// all render through it, so a scan serializes identically no matter
// which surface produced it. label is echoed into the report;
// datasetHash is the lowercase-hex bitmat content hash of the input
// when the producer knows it ("" otherwise, e.g. streamed scans).
func (r *Report) APIReport(label, datasetHash string) api.ScanReport {
	rows := make([]api.ResultRow, len(r.Results))
	for i, res := range r.Results {
		rows[i] = api.ResultRow{Position: res.Center, Valid: res.Valid}
		if res.Valid {
			rows[i].Omega = res.MaxOmega
			rows[i].WinLeft = res.LeftPos
			rows[i].WinRight = res.RightPos
			rows[i].Scores = res.Scores
		}
	}
	return api.ScanReport{
		Schema:               api.SchemaVersion,
		Label:                label,
		Backend:              r.Backend.String(),
		DatasetHash:          datasetHash,
		Results:              rows,
		OmegaScores:          r.OmegaScores,
		R2Computed:           r.R2Computed,
		R2Reused:             r.R2Reused,
		R2Duplicated:         r.R2Duplicated,
		KernelScalarRegions:  r.OmegaKernelScalar,
		KernelBlockedRegions: r.OmegaKernelBlocked,
		StreamChunks:         r.StreamChunks,
		StreamBytesRead:      r.StreamBytesRead,
		StreamCompressedSNPs: r.StreamCompressedSNPs,
		ModelVersion:         r.ModelVersion,
		CalibrationID:        r.CalibrationID,
		Timing: &api.Timing{
			LDSeconds:          r.LDSeconds,
			OmegaSeconds:       r.OmegaSeconds,
			WallSeconds:        r.WallSeconds,
			StreamLoadSeconds:  r.StreamLoadSeconds,
			StreamStallSeconds: r.StreamStallSeconds,
		},
	}
}

// APIError classifies err into the wire error envelope, the one place
// the sentinel-to-class mapping lives: the CLI exit code is
// api.ExitCode(APIError(err).Code) and the omegad HTTP status is
// APIError(err).HTTPStatus(), so both surfaces classify identically by
// construction. A nil err returns nil.
func APIError(err error) *api.Error {
	if err == nil {
		return nil
	}
	code := api.CodeFailure
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		code = api.CodeTimeout
	// ErrBadCalibration must dispatch before the fs.ErrNotExist input
	// case: a missing table file wraps both, and a table named in
	// configuration that cannot be used is a configuration error.
	case errors.Is(err, ErrBadCalibration):
		code = api.CodeConfig
	// Likewise a scenario spec: unusable-for-any-reason (including a
	// missing file) is a configuration error, not an input error.
	case errors.Is(err, ErrBadScenarioSpec):
		code = api.CodeConfig
	case errors.Is(err, ErrBadGrid) || errors.Is(err, ErrUnknownBackend) ||
		errors.Is(err, ErrBadExecOption) || errors.Is(err, ErrStreamUnsupported):
		code = api.CodeConfig
	case errors.Is(err, ErrNoSNPs) || errors.Is(err, fs.ErrNotExist):
		code = api.CodeInput
	}
	return &api.Error{Code: code, Message: err.Error()}
}

// ConfigFromParams resolves wire scan parameters into a Config,
// parsing the enum names through the same registries the CLI flags
// use. The zero ScanParams yields the zero Config (all defaults).
// Errors wrap the usual sentinels (ErrUnknownBackend for a bad backend
// name; scheduler/kernel spelling mistakes are usage errors).
func ConfigFromParams(p api.ScanParams) (Config, error) {
	cfg := Config{
		GridSize:       p.GridSize,
		MinWindow:      p.MinWindow,
		MaxWindow:      p.MaxWindow,
		MaxSNPsPerSide: p.MaxSNPsPerSide,
		KernelNthr:     p.KernelNthr,
		Threads:        p.Threads,
		UseGEMMLD:      p.UseGEMMLD,
		ChunkSNPs:      p.ChunkSNPs,
	}
	var err error
	if p.Backend != "" {
		if cfg.Backend, err = ParseBackend(p.Backend); err != nil {
			return Config{}, err
		}
	}
	// The scheduler field selects nothing; it is still validated so a
	// misspelling is an error.
	if err := api.CheckScheduler(p.Scheduler); err != nil {
		return Config{}, fmt.Errorf("omegago: %w", err)
	}
	if cfg.OmegaKernel, err = ParseOmegaKernel(p.OmegaKernel); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// ParamsFromConfig renders the scan-relevant fields of a Config back
// into wire form — the inverse of ConfigFromParams over everything the
// api carries (observers, metrics and device model handles have no
// wire representation).
func ParamsFromConfig(c Config) api.ScanParams {
	p := api.ScanParams{
		GridSize:       c.GridSize,
		MinWindow:      c.MinWindow,
		MaxWindow:      c.MaxWindow,
		MaxSNPsPerSide: c.MaxSNPsPerSide,
		KernelNthr:     c.KernelNthr,
		Threads:        c.Threads,
		UseGEMMLD:      c.UseGEMMLD,
		ChunkSNPs:      c.ChunkSNPs,
	}
	if c.Backend != BackendCPU {
		p.Backend = c.Backend.String()
	}
	if c.OmegaKernel != OmegaKernelAuto {
		p.OmegaKernel = c.OmegaKernel.String()
	}
	return p
}

// DatasetContentHash computes the canonical bitmat content hash of the
// dataset — the same SHA-256 SaveBitmat stamps into the file header
// and the identity the omegad result cache keys on. Any input format
// normalizes to the same hash once allele-compressed.
func DatasetContentHash(ds *Dataset) ([32]byte, error) {
	return seqio.ContentHash(ds)
}

// BatchContentHash computes the combined content identity of a batch:
// the SHA-256 over every replicate's bitmat content hash in input
// order. A nil replicate (the LoadMSAll convention for a replicate
// with zero segregating sites) contributes 32 zero bytes — the binary
// form of api.SkippedDatasetHash — so the hash covers replicate
// positions as well as contents, and the CLI's -all-replicates path
// and the omegad batch kind agree on the identity of the same ms
// file.
func BatchContentHash(batch []*Dataset) ([32]byte, error) {
	h := sha256.New()
	var zero [32]byte
	for _, ds := range batch {
		if ds == nil {
			h.Write(zero[:])
			continue
		}
		hash, err := seqio.ContentHash(ds)
		if err != nil {
			return [32]byte{}, err
		}
		h.Write(hash[:])
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out, nil
}

// APIBatchReport converts the batch report to its wire form
// (api.BatchReport) — the shared marshaller behind the CLI's
// `-all-replicates -json` output and the omegad batch job result, so a
// batch serializes identically no matter which surface produced it.
// backend is the canonical engine name (the root BatchReport does not
// record it); batchHash is the lowercase-hex BatchContentHash when the
// producer knows it ("" otherwise); replicateHashes, when non-nil,
// carries the per-replicate dataset hash for each index (use
// api.SkippedDatasetHash or "" for skipped entries).
func (b *BatchReport) APIBatchReport(label, backend, batchHash string, replicateHashes []string) api.BatchReport {
	items := make([]api.BatchItem, len(b.Replicates))
	for i, rep := range b.Replicates {
		item := api.BatchItem{Index: rep.Index}
		switch {
		case rep.Skipped:
			item.Skipped = true
		case rep.Err != nil:
			item.Error = APIError(rep.Err)
		default:
			hash := ""
			if rep.Index < len(replicateHashes) {
				hash = replicateHashes[rep.Index]
			}
			r := rep.Report.APIReport("", hash)
			item.Report = &r
		}
		items[i] = item
	}
	return api.BatchReport{
		Schema:       api.SchemaVersion,
		Label:        label,
		Backend:      backend,
		BatchHash:    batchHash,
		Replicates:   items,
		Scanned:      b.Scanned,
		Skipped:      b.Skipped,
		Failed:       b.Failed,
		OmegaScores:  b.OmegaScores,
		R2Computed:   b.R2Computed,
		R2Reused:     b.R2Reused,
		R2Duplicated: b.R2Duplicated,
		Timing: &api.Timing{
			LDSeconds:    b.LDSeconds,
			OmegaSeconds: b.OmegaSeconds,
			WallSeconds:  b.WallSeconds,
		},
	}
}

package omegago

import (
	"errors"
	"fmt"

	"omegago/internal/devmodel"
	"omegago/internal/exec"
	"omegago/internal/omega"
)

// Sentinel errors of the public API. Scan, ScanContext and ScanBatch
// wrap them with field-level detail; match with errors.Is. The CLI maps
// each class to a distinct exit code.
var (
	// ErrUnknownBackend marks a Config.Backend outside the registered
	// execution engines.
	ErrUnknownBackend = errors.New("omegago: unknown backend")
	// ErrNoSNPs marks a nil dataset or one holding no segregating sites
	// (for example an ms replicate of a fully swept sample).
	ErrNoSNPs = errors.New("omegago: dataset has no SNPs")
	// ErrBadGrid marks grid-geometry configuration a scan cannot run
	// with (negative sizes, inverted window bounds).
	ErrBadGrid = errors.New("omegago: invalid grid configuration")
	// ErrStreamUnsupported marks a ScanStream call with a backend other
	// than BackendCPU: the simulated accelerators' transfer models
	// assume a resident alignment.
	ErrStreamUnsupported = errors.New("omegago: streaming requires BackendCPU")
	// ErrBadExecOption marks execution options a scan cannot run with:
	// negative thread or worker counts, an OmegaKernel value outside the
	// registered set, a negative KernelNthr. Like
	// ErrBadGrid it classifies as configuration (CLI exit 4, HTTP 400).
	ErrBadExecOption = errors.New("omegago: invalid execution option")
	// ErrBadCalibration marks a calibration table that cannot be used: a
	// missing or unreadable file, malformed JSON, an unsupported schema
	// version, or out-of-range factors (configuration exit class).
	ErrBadCalibration = devmodel.ErrBadCalibration
)

// Validate reports the first configuration error, annotated with the
// offending field and wrapping the matching sentinel (ErrBadGrid,
// ErrBadExecOption, ErrUnknownBackend or ErrBadCalibration) for
// errors.Is dispatch. Every field of Config that can be invalid is
// covered: grid geometry and chunking map to ErrBadGrid, execution
// knobs (Threads, OmegaKernel, KernelNthr, BatchWorkers) to
// ErrBadExecOption, the backend to ErrUnknownBackend, and calibration
// tables to ErrBadCalibration — so the CLI and the omegad service
// classify the same mistake identically. Scan, ScanContext and
// ScanBatch each call it exactly once per invocation; callers
// constructing a Config interactively can call it early for the same
// diagnostics.
func (c Config) Validate() error {
	if c.GridSize < 0 {
		return fmt.Errorf("%w: GridSize %d < 0", ErrBadGrid, c.GridSize)
	}
	if c.MinWindow < 0 {
		return fmt.Errorf("%w: MinWindow %g < 0", ErrBadGrid, c.MinWindow)
	}
	if c.MaxWindow < 0 {
		return fmt.Errorf("%w: MaxWindow %g < 0", ErrBadGrid, c.MaxWindow)
	}
	if c.MaxWindow > 0 && c.MinWindow > c.MaxWindow {
		return fmt.Errorf("%w: MinWindow %g > MaxWindow %g", ErrBadGrid, c.MinWindow, c.MaxWindow)
	}
	if c.MaxSNPsPerSide < 0 {
		return fmt.Errorf("%w: MaxSNPsPerSide %d < 0", ErrBadGrid, c.MaxSNPsPerSide)
	}
	if c.ChunkSNPs < 0 {
		return fmt.Errorf("%w: ChunkSNPs %d < 0", ErrBadGrid, c.ChunkSNPs)
	}
	if c.Threads < 0 {
		return fmt.Errorf("%w: Threads %d < 0", ErrBadExecOption, c.Threads)
	}
	if c.BatchWorkers < 0 {
		return fmt.Errorf("%w: BatchWorkers %d < 0", ErrBadExecOption, c.BatchWorkers)
	}
	if c.KernelNthr < 0 {
		return fmt.Errorf("%w: KernelNthr %d < 0", ErrBadExecOption, c.KernelNthr)
	}
	if !omega.KindNames.Valid(c.OmegaKernel) {
		return fmt.Errorf("%w: OmegaKernel %v", ErrBadExecOption, c.OmegaKernel)
	}
	if _, err := exec.Lookup(c.Backend.String()); err != nil {
		return fmt.Errorf("%w: %v", ErrUnknownBackend, c.Backend)
	}
	if c.Calibration != nil {
		if err := c.Calibration.Validate(); err != nil {
			return err
		}
	}
	return nil
}

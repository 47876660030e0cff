// Package obs is the observability layer of omegago: a lock-free
// metrics core (atomic counters, gauges, and per-phase duration
// histograms), a Registry that exposes those metrics in Prometheus
// text format and through expvar, and a Progress/Phase event stream
// emitted at grid-position granularity by every execution backend
// (the CPU scan engine, the simulated GPU, and the simulated FPGA).
//
// The paper's whole evaluation is throughput measured over long scans
// (ω scores/second, Tables III–V); this package is what makes those
// quantities visible while a scan is still running instead of only
// after it finishes. Data flows in one direction:
//
//	scan loops ──Tick/Span──▶ Meter ──OnProgress/OnPhase──▶ Observer
//	                             │
//	                             └────atomic adds────▶ Metrics ▶ Registry
//	                                                               │
//	                                      /metrics, /debug/vars ◀──┘
//
// Everything on the hot path is allocation-free when disabled: a nil
// *Meter is a valid no-op receiver, so engine loops carry exactly one
// predictable branch per grid position when nobody is watching.
package obs

import "time"

// Well-known phase names used by the engine scan loops. Observers can
// rely on these exact strings; free-form names (e.g. "shard 3",
// "load+parse") also flow through the same channel.
const (
	// PhaseLD is the r²/DP-matrix stage (Equation 1 + Equation 3).
	PhaseLD = "ld"
	// PhaseOmega is the ω window enumeration (Equation 2).
	PhaseOmega = "omega"
	// PhaseStreamLoad is the chunk read/parse stage of the out-of-core
	// streaming scanner (I/O that the double buffer hides behind
	// compute; see omega.ScanStream).
	PhaseStreamLoad = "stream_load"
)

// Progress is a point-in-time snapshot of a running scan (or batch of
// scans). Counters are cumulative over the whole run: for ScanBatch
// they aggregate across every worker and replicate.
type Progress struct {
	// Backend is the execution engine name ("cpu", "gpu-sim", "fpga-sim").
	Backend string
	// Replicate is the batch index of the dataset that produced this
	// event, or -1 for a single-dataset scan.
	Replicate int
	// GridDone / GridTotal count grid positions finished vs planned.
	// GridTotal covers the whole batch (grid size × non-nil datasets).
	GridDone, GridTotal int64
	// OmegaScores / R2Computed are the cumulative work counters (the
	// Table III throughput numerators).
	OmegaScores int64
	R2Computed  int64
	// ReplicatesDone / ReplicatesTotal track batch completion; both are
	// zero for a single-dataset scan.
	ReplicatesDone, ReplicatesTotal int
	// Elapsed is the wall time since the run started.
	Elapsed time.Duration
	// OmegaPerSec is the running ω throughput (OmegaScores / Elapsed).
	OmegaPerSec float64
	// ETA is the estimated time to completion, extrapolated from the
	// grid-position rate. Zero until at least one position finished.
	ETA time.Duration
}

// Percent returns completion as 0–100.
func (p Progress) Percent() float64 {
	if p.GridTotal == 0 {
		return 0
	}
	return 100 * float64(p.GridDone) / float64(p.GridTotal)
}

// Phase is one completed span of work: a per-region LD or ω stage, a
// shard summary, or a top-level phase like parsing. Phases from
// accelerator backends carry modeled device time (Modeled=true); the
// host wall moment the work started is Start either way, so phases
// remain plottable on a timeline.
type Phase struct {
	// Backend is the engine that emitted the phase ("" for phases
	// emitted outside a scan, e.g. the CLI's load+parse span).
	Backend string
	// Name identifies the stage (PhaseLD, PhaseOmega, PhaseSnapshot, or
	// a free-form span name).
	Name string
	// Track is the logical lane for trace rendering: 0 = default lane,
	// 1 = producer/coordinator, 2+n = worker/shard n.
	Track int
	// Start is when the work began (host wall clock).
	Start time.Time
	// Duration is how long it took — measured host time, or modeled
	// device time when Modeled is true.
	Duration time.Duration
	// Modeled marks durations that come from the accelerator cost model
	// rather than a host clock.
	Modeled bool
	// Args carries optional free-form metadata (shard summaries attach
	// their work counters here).
	Args map[string]any
}

// Observer receives live events from running scans. Implementations
// MUST be safe for concurrent use: parallel CPU scan shards and
// ScanBatch worker pools invoke callbacks from many goroutines.
//
// Because concurrent emitters race to deliver their snapshots, two
// OnProgress calls may arrive out of order; the counters inside each
// Progress value are consistent snapshots, monotone in the underlying
// counters, not in callback order. Single-threaded scans deliver
// strictly monotone sequences.
type Observer interface {
	// OnProgress is called after every completed grid position.
	OnProgress(Progress)
	// OnPhase is called when a span of work completes.
	OnPhase(Phase)
}

// multi fans events out to several observers.
type multi []Observer

func (m multi) OnProgress(p Progress) {
	for _, o := range m {
		o.OnProgress(p)
	}
}

func (m multi) OnPhase(p Phase) {
	for _, o := range m {
		o.OnPhase(p)
	}
}

// Multi composes observers into one, dropping nil entries. It returns
// nil when nothing remains — callers can pass the result straight to a
// Config and keep the nil fast path.
func Multi(os ...Observer) Observer {
	var kept multi
	for _, o := range os {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}

package omegago

import (
	"io"
	"time"

	"omegago/internal/obs"
)

// Observer receives live events from running scans: one Progress
// snapshot per completed grid position and one Phase event per
// completed span of work. Set Config.Observer to watch a scan;
// ScanBatch aggregates progress across its worker pool into the same
// stream. Implementations must be safe for concurrent use — parallel
// scan shards and batch workers deliver callbacks from many goroutines.
//
// A *Tracer is an Observer: passing one as Config.Observer records
// every Phase as a Chrome-trace span (the pre-redesign Config.Tracer
// hook, absorbed into this surface).
type Observer = obs.Observer

// Progress is a point-in-time snapshot of a running scan or batch:
// grid positions done/total, cumulative ω and r² counters, running
// ω/sec throughput, and an ETA.
type Progress = obs.Progress

// Phase is one completed span of work (LD stage, ω stage, shard
// summary, …). Accelerator backends emit modeled device durations with
// Modeled set.
type Phase = obs.Phase

// Well-known Phase names emitted by every backend's scan loop.
const (
	PhaseLD    = obs.PhaseLD
	PhaseOmega = obs.PhaseOmega
)

// Registry holds named metrics and serves them in the Prometheus text
// exposition format (Handler) and as an expvar map (PublishExpvar).
type Registry = obs.Registry

// Metrics is the standard omegago metric bundle over a Registry; set
// Config.Metrics to have scans feed it live (lock-free atomics, safe
// for concurrent scans against one bundle).
type Metrics = obs.Metrics

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewMetrics registers (or reattaches to) the omegago metric bundle on
// reg.
func NewMetrics(reg *Registry) *Metrics { return obs.NewMetrics(reg) }

// MultiObserver composes observers into one, dropping nil entries; it
// returns nil when nothing remains, preserving the observer-off fast
// path.
func MultiObserver(observers ...Observer) Observer { return obs.Multi(observers...) }

// NewProgressWriter returns an Observer that renders a live
// self-overwriting progress line (counts, ω/sec, ETA) to w at most
// once per `every` (every ≤ 0 renders every event). This is the
// implementation behind cmd/omegago's -progress flag.
func NewProgressWriter(w io.Writer, every time.Duration) Observer {
	return obs.NewProgressWriter(w, every)
}

package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestObsCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				c.Add(2)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8*1000*3 {
		t.Errorf("counter = %d, want %d", got, 8*1000*3)
	}
	c.Add(-5)
	if got := c.Value(); got != 8*1000*3 {
		t.Errorf("negative Add moved the counter to %d", got)
	}
}

func TestObsGaugeConcurrentAdd(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 8*1000*0.5 {
		t.Errorf("gauge = %g, want %g", got, 8*1000*0.5)
	}
	g.Set(-3.25)
	if got := g.Value(); got != -3.25 {
		t.Errorf("Set: gauge = %g", got)
	}
}

func TestObsHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 50, 1000} {
		h.Observe(v)
	}
	// ≤1: {0.5, 1}; ≤10: +{5, 10}; ≤100: +{50}; +Inf: +{1000}.
	want := []int64{2, 4, 5, 6}
	got := h.Cumulative()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cumulative[%d] = %d, want %d (full: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 0.5+1+5+10+50+1000 {
		t.Errorf("sum = %g", h.Sum())
	}
}

// TestObsPrometheusGolden pins the text exposition byte for byte:
// deterministic ordering and formatting are the format's contract with
// scrapers.
func TestObsPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_scans_total", "Scans run.").Add(3)
	reg.Gauge("test_rate", "Current rate.").Set(1.5)
	h := reg.Histogram("test_seconds", "Durations.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	// Labeled series of one base share a single HELP/TYPE block, with
	// sample lines grouped under it in label order.
	reg.Counter(`test_dispatch_total{kernel="blocked"}`, "Dispatches per kernel.").Add(2)
	reg.Counter(`test_dispatch_total{kernel="scalar"}`, "Dispatches per kernel.").Add(5)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_dispatch_total Dispatches per kernel.
# TYPE test_dispatch_total counter
test_dispatch_total{kernel="blocked"} 2
test_dispatch_total{kernel="scalar"} 5
# HELP test_rate Current rate.
# TYPE test_rate gauge
test_rate 1.5
# HELP test_scans_total Scans run.
# TYPE test_scans_total counter
test_scans_total 3
# HELP test_seconds Durations.
# TYPE test_seconds histogram
test_seconds_bucket{le="0.1"} 1
test_seconds_bucket{le="1"} 2
test_seconds_bucket{le="+Inf"} 3
test_seconds_sum 5.55
test_seconds_count 3
`
	if sb.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

func TestObsRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "x")
	b := reg.Counter("x_total", "x")
	if a != b {
		t.Error("same name returned distinct counters")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	reg.Gauge("x_total", "x")
}

// TestObsLabeledNameValidation: malformed label syntax and labeled
// histograms (whose _bucket/_sum suffixes a label set would corrupt)
// must be rejected at registration.
func TestObsLabeledNameValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	reg := NewRegistry()
	mustPanic("unterminated labels", func() { reg.Counter(`x_total{kernel="a"`, "") })
	mustPanic("missing value quotes", func() { reg.Counter(`x_total{kernel=a}`, "") })
	mustPanic("quote inside value", func() { reg.Counter(`x_total{kernel="a"b"}`, "") })
	mustPanic("pair without =", func() { reg.Counter(`x_total{kernel}`, "") })
	mustPanic("labeled histogram", func() { reg.Histogram(`x_seconds{kernel="a"}`, "", nil) })
	// Well-formed labels register fine and are distinct series.
	a := reg.Counter(`y_total{kernel="a"}`, "y")
	b := reg.Counter(`y_total{kernel="b"}`, "y")
	if a == b {
		t.Error("distinct label sets returned the same counter")
	}
}

func TestObsHandlerContentType(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "x").Inc()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
}

func TestObsRegistrySnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "c").Add(7)
	reg.Gauge("g", "g").Set(2.5)
	reg.Histogram("h_seconds", "h", nil).Observe(0.5)
	snap := reg.Snapshot()
	if snap["c_total"] != int64(7) {
		t.Errorf("counter snapshot = %v", snap["c_total"])
	}
	if snap["g"] != 2.5 {
		t.Errorf("gauge snapshot = %v", snap["g"])
	}
	hs, ok := snap["h_seconds"].(map[string]any)
	if !ok || hs["count"] != int64(1) || hs["sum"] != 0.5 {
		t.Errorf("histogram snapshot = %v", snap["h_seconds"])
	}
}

func TestObsMeterProgress(t *testing.T) {
	var events []Progress
	rec := observerFunc{onProgress: func(p Progress) { events = append(events, p) }}
	reg := NewRegistry()
	met := NewMetrics(reg)
	m := NewMeter("cpu", 3, rec, met)
	m.Tick(10, 100)
	m.Tick(0, 50)
	m.Tick(5, 25)
	m.Done(nil)

	last := events[len(events)-1]
	if last.GridDone != 3 || last.GridTotal != 3 {
		t.Errorf("grid %d/%d, want 3/3", last.GridDone, last.GridTotal)
	}
	if last.OmegaScores != 15 || last.R2Computed != 175 {
		t.Errorf("scores=%d r2=%d, want 15/175", last.OmegaScores, last.R2Computed)
	}
	if last.Replicate != -1 {
		t.Errorf("replicate = %d, want -1 for a single scan", last.Replicate)
	}
	for i := 1; i < len(events); i++ {
		if events[i].GridDone < events[i-1].GridDone {
			t.Errorf("GridDone regressed: %d after %d", events[i].GridDone, events[i-1].GridDone)
		}
	}
	if met.GridPositions.Value() != 3 || met.OmegaScores.Value() != 15 || met.R2Computed.Value() != 175 {
		t.Errorf("metrics: grid=%d scores=%d r2=%d",
			met.GridPositions.Value(), met.OmegaScores.Value(), met.R2Computed.Value())
	}
	if met.Scans.Value() != 1 || met.ScansInFlight.Value() != 0 {
		t.Errorf("lifecycle: scans=%d in-flight=%g", met.Scans.Value(), met.ScansInFlight.Value())
	}
}

func TestObsBatchMeterReplicates(t *testing.T) {
	var mu sync.Mutex
	var last Progress
	rec := observerFunc{onProgress: func(p Progress) { mu.Lock(); last = p; mu.Unlock() }}
	m := NewBatchMeter("cpu", 4, 2, rec, nil)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			child := m.Replicate(r)
			child.Tick(1, 1)
			child.Tick(1, 1)
			child.Done(nil)
		}(r)
	}
	wg.Wait()
	m.Done(nil)
	if last.GridDone != 4 || last.GridTotal != 4 {
		t.Errorf("grid %d/%d, want 4/4", last.GridDone, last.GridTotal)
	}
	if last.ReplicatesDone != 2 || last.ReplicatesTotal != 2 {
		t.Errorf("replicates %d/%d, want 2/2", last.ReplicatesDone, last.ReplicatesTotal)
	}
}

func TestObsNilMeterIsNoop(t *testing.T) {
	var m *Meter
	m.Tick(1, 1)
	m.Span("x", 0, time.Now(), time.Second, false, nil)
	m.Done(nil)
	if p := m.Snapshot(); p.GridDone != 0 {
		t.Error("nil meter snapshot not zero")
	}
	child := m.Replicate(0)
	if child != nil {
		t.Error("nil meter Replicate returned non-nil")
	}
}

func TestObsMeterSpanFeedsPhaseHistogram(t *testing.T) {
	reg := NewRegistry()
	met := NewMetrics(reg)
	m := NewMeter("gpu-sim", 1, nil, met)
	m.Span(PhaseLD, 0, time.Now(), 2*time.Millisecond, true, nil)
	m.Span(PhaseLD, 0, time.Now(), 3*time.Millisecond, true, nil)
	h := met.PhaseHistogram(PhaseLD)
	if h.Count() != 2 {
		t.Errorf("phase histogram count = %d, want 2", h.Count())
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "omegago_phase_seconds_ld_count 2") {
		t.Errorf("phase histogram missing from exposition:\n%s", sb.String())
	}
}

func TestObsMultiDropsNil(t *testing.T) {
	if Multi(nil, nil) != nil {
		t.Error("Multi of nils should be nil")
	}
	var n int
	one := observerFunc{onProgress: func(Progress) { n++ }}
	if o := Multi(nil, one); o == nil {
		t.Fatal("Multi dropped a live observer")
	} else {
		o.OnProgress(Progress{})
	}
	both := Multi(one, one)
	both.OnProgress(Progress{})
	if n != 3 {
		t.Errorf("fan-out count = %d, want 3", n)
	}
}

func TestObsProgressWriter(t *testing.T) {
	var sb strings.Builder
	pw := NewProgressWriter(&sb, 0)
	pw.OnProgress(Progress{Backend: "cpu", GridDone: 1, GridTotal: 4, OmegaScores: 1000, OmegaPerSec: 500, ETA: 3 * time.Second, Elapsed: time.Second})
	pw.OnProgress(Progress{Backend: "cpu", GridDone: 4, GridTotal: 4, OmegaScores: 4000, OmegaPerSec: 800, Elapsed: 5 * time.Second})
	out := sb.String()
	if !strings.Contains(out, "1/4 positions (25.0%)") {
		t.Errorf("missing partial progress line: %q", out)
	}
	if !strings.Contains(out, "4/4 positions (100.0%)") || !strings.HasSuffix(out, "\n") {
		t.Errorf("missing final newline-terminated line: %q", out)
	}
	if !strings.Contains(out, "ETA") {
		t.Errorf("missing ETA on partial line: %q", out)
	}
}

// observerFunc adapts closures to the Observer interface for tests.
type observerFunc struct {
	onProgress func(Progress)
	onPhase    func(Phase)
}

func (o observerFunc) OnProgress(p Progress) {
	if o.onProgress != nil {
		o.onProgress(p)
	}
}

func (o observerFunc) OnPhase(p Phase) {
	if o.onPhase != nil {
		o.onPhase(p)
	}
}

package omegago_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"omegago"
	"omegago/api"
)

// cancelCases enumerates every execution path that must honour context
// cancellation: the CPU scan engine serial and sharded at several thread
// counts, the engine under a config decoded from a request that still
// names the retired snapshot scheduler, and the two simulated
// accelerators.
func cancelCases() []struct {
	name string
	cfg  omegago.Config
} {
	legacy, err := omegago.ConfigFromParams(api.ScanParams{
		GridSize: 120, MaxWindow: 60000, Threads: 2, Scheduler: "snapshot",
	})
	if err != nil {
		panic(err)
	}
	return []struct {
		name string
		cfg  omegago.Config
	}{
		{"cpu/serial", omegago.Config{GridSize: 120, MaxWindow: 60000}},
		{"cpu/snapshot", legacy},
		{"cpu/sharded", omegago.Config{GridSize: 120, MaxWindow: 60000, Threads: 3}},
		{"cpu/8threads", omegago.Config{GridSize: 120, MaxWindow: 60000, Threads: 8}},
		{"gpu-sim", omegago.Config{GridSize: 120, MaxWindow: 60000, Backend: omegago.BackendGPU}},
		{"fpga-sim", omegago.Config{GridSize: 120, MaxWindow: 60000, Backend: omegago.BackendFPGA}},
	}
}

// waitForGoroutines polls until the goroutine count drops back to the
// baseline (cancelled scans must join every worker before returning, so
// only scheduler lag is tolerated here).
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestScanContextPreCancelled: a context that is already cancelled must
// abort every backend and thread count before any result is assembled, and
// leave no goroutines behind.
func TestScanContextPreCancelled(t *testing.T) {
	ds, err := omegago.Simulate(omegago.SimConfig{
		SampleSize: 40, Replicates: 1, SegSites: 800, Rho: 80, Seed: 42,
	}, 500000)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range cancelCases() {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			rep, err := omegago.ScanContext(ctx, ds, tc.cfg)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if rep != nil {
				t.Fatal("non-nil report from a cancelled scan")
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("cancelled scan took %v to return", elapsed)
			}
		})
	}
	waitForGoroutines(t, baseline)
}

// TestScanContextMidScanCancellation cancels while the scan is running
// and requires ctx.Err() back promptly: the loops check the context at
// region/grid-position granularity, so the abort latency is one unit of
// work, not the remaining scan.
func TestScanContextMidScanCancellation(t *testing.T) {
	// Large enough that a full scan takes well over the cancellation
	// delay on any hardware this test runs on.
	ds, err := omegago.Simulate(omegago.SimConfig{
		SampleSize: 64, Replicates: 1, SegSites: 3000, Rho: 200, Seed: 17,
	}, 2e6)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	for _, tc := range cancelCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.GridSize = 600
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			time.AfterFunc(5*time.Millisecond, cancel)
			start := time.Now()
			rep, err := omegago.ScanContext(ctx, ds, cfg)
			elapsed := time.Since(start)
			if err == nil {
				// The scan outran the timer; that is legal, just assert it
				// produced a full report.
				if rep == nil || len(rep.Results) != cfg.GridSize {
					t.Fatalf("scan finished before cancellation but report is malformed")
				}
				t.Skipf("scan completed in %v, before the cancellation fired", elapsed)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if rep != nil {
				t.Fatal("non-nil report from a cancelled scan")
			}
			// Generous bound: cancellation latency is one region of work
			// plus scheduling noise, far below a full 600-position scan.
			if elapsed > 5*time.Second {
				t.Fatalf("mid-scan cancellation took %v to surface", elapsed)
			}
		})
	}
	waitForGoroutines(t, baseline)
}

// TestScanContextDeadline: an expired deadline surfaces as
// context.DeadlineExceeded through the same path.
func TestScanContextDeadline(t *testing.T) {
	ds, err := omegago.Simulate(omegago.SimConfig{
		SampleSize: 48, Replicates: 1, SegSites: 2000, Rho: 150, Seed: 23,
	}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the deadline lapse
	_, err = omegago.ScanContext(ctx, ds, omegago.Config{GridSize: 400, MaxWindow: 100000, Threads: 2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestScanNilContext: Scan and a nil ctx passed to ScanContext both
// behave as context.Background.
func TestScanNilContext(t *testing.T) {
	ds, err := omegago.Simulate(omegago.SimConfig{
		SampleSize: 20, Replicates: 1, SegSites: 120, Seed: 3,
	}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	want, err := omegago.Scan(ds, omegago.Config{GridSize: 10, MaxWindow: 20000})
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore SA1012 deliberate nil-context robustness check
	got, err := omegago.ScanContext(nil, ds, omegago.Config{GridSize: 10, MaxWindow: 20000})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Results {
		if got.Results[i] != want.Results[i] {
			t.Fatalf("nil-ctx result[%d] diverges", i)
		}
	}
}

package omegago_test

import (
	"context"
	"fmt"
	"testing"

	"omegago"
	"omegago/internal/harness"
	"omegago/internal/ld"
	"omegago/internal/omega"
	"omegago/internal/seqio"
)

// TestGoldenSchedulerEquivalence asserts the engine contract on the
// repository's golden datasets: the resident Scan and the streamed
// ScanStream must return the serial scan's []Result — ω values,
// borders, positions, validity and score counts, compared with struct
// equality, i.e. bitwise for the floats — at thread counts
// {1, 2, 3, 8}, including grids smaller than the thread count, and
// R2Computed − R2Duplicated must equal the serial r² count.
func TestGoldenSchedulerEquivalence(t *testing.T) {
	goldenSim, err := omegago.Simulate(omegago.SimConfig{
		SampleSize: 32, Replicates: 1, SegSites: 400, Rho: 120, Seed: 20260706,
	}, 250000)
	if err != nil {
		t.Fatal(err)
	}
	goldenHarness, err := harness.Dataset(800, 50, 31415)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		a    *seqio.Alignment
		p    omega.Params
	}{
		{"sim/grid25", goldenSim, omega.Params{GridSize: 25, MinWindow: 4000, MaxWindow: 50000}},
		{"sim/grid3-smaller-than-threads", goldenSim, omega.Params{GridSize: 3, MaxWindow: 30000}},
		{"harness/grid40", goldenHarness, omega.Params{GridSize: 40, MaxWindow: 20000}},
		{"harness/grid2-smaller-than-threads", goldenHarness, omega.Params{GridSize: 2, MaxWindow: 20000}},
	}
	threadCounts := []int{1, 2, 3, 8}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			serial, stS, err := omega.Scan(ctx, tc.a, tc.p, ld.Direct, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			check := func(path string, threads int, got []omega.Result, st omega.Stats) {
				t.Helper()
				if len(got) != len(serial) {
					t.Fatalf("%s threads=%d: %d results, want %d", path, threads, len(got), len(serial))
				}
				for i := range serial {
					if got[i] != serial[i] {
						t.Fatalf("%s threads=%d: result[%d] = %+v, want %+v", path, threads, i, got[i], serial[i])
					}
				}
				if st.R2Computed-st.R2Duplicated != stS.R2Computed {
					t.Errorf("%s threads=%d: r² computed %d − duplicated %d ≠ serial %d",
						path, threads, st.R2Computed, st.R2Duplicated, stS.R2Computed)
				}
			}
			for _, threads := range threadCounts {
				resident, st, err := omega.Scan(ctx, tc.a, tc.p, ld.Direct, threads, nil)
				if err != nil {
					t.Fatal(err)
				}
				check("resident", threads, resident, st)
				for _, chunkSNPs := range []int{0, 150} {
					src, err := seqio.NewAlignmentSource(tc.a)
					if err != nil {
						t.Fatal(err)
					}
					streamed, st, _, err := omega.ScanStream(ctx, src, tc.p, ld.Direct, threads, chunkSNPs, nil)
					if err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("stream/chunk%d", chunkSNPs), threads, streamed, st)
				}
			}
		})
	}
}

// TestSchedulerConfigEquivalence drives the same contract through the
// public API: every thread count, resident or streamed, and every
// retired scheduler spelling a request may still carry must reproduce
// the serial scan's report exactly.
func TestSchedulerConfigEquivalence(t *testing.T) {
	ds, err := omegago.Simulate(omegago.SimConfig{
		SampleSize: 24, Replicates: 1, SegSites: 300, Rho: 60, Seed: 99,
	}, 150000)
	if err != nil {
		t.Fatal(err)
	}
	base := omegago.Config{GridSize: 20, MaxWindow: 25000}
	want, err := omegago.Scan(ds, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 2, 3, 8} {
		for _, sched := range []string{"", "auto", "snapshot", "sharded"} {
			params := omegago.ParamsFromConfig(base)
			params.Threads, params.Scheduler = threads, sched
			cfg, err := omegago.ConfigFromParams(params)
			if err != nil {
				t.Fatal(err)
			}
			got, err := omegago.Scan(ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			src, err := omegago.NewDatasetSource(ds)
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := omegago.ScanStream(src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for name, rep := range map[string]*omegago.Report{"resident": got, "stream": streamed} {
				for i := range want.Results {
					if rep.Results[i] != want.Results[i] {
						t.Fatalf("%s threads=%d sched=%q: result[%d] = %+v, want %+v",
							name, threads, sched, i, rep.Results[i], want.Results[i])
					}
				}
				if rep.OmegaScores != want.OmegaScores {
					t.Errorf("%s threads=%d sched=%q: %d ω scores, want %d",
						name, threads, sched, rep.OmegaScores, want.OmegaScores)
				}
				if rep.R2Computed-rep.R2Duplicated != want.R2Computed {
					t.Errorf("%s threads=%d sched=%q: r² computed %d − duplicated %d ≠ serial %d",
						name, threads, sched, rep.R2Computed, rep.R2Duplicated, want.R2Computed)
				}
			}
		}
	}
}

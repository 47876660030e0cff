package omegago

import (
	"context"
	"math"
	"testing"

	"omegago/internal/exec"
)

// TestGoldenScanRegression pins the complete pipeline — simulator,
// parser-equivalent conversion, LD, DP matrix, ω scan — to exact values
// recorded from a known-good build. Any unintended change to the
// numerics (allele packing, r² evaluation order, DP recurrence, window
// enumeration, reduction tie-breaking) trips this test.
//
// The pinned values are NOT from the paper; they are this
// implementation's deterministic output for a fixed seed. Re-pin only
// after deliberately changing the numerics, and say so in the commit.
func TestGoldenScanRegression(t *testing.T) {
	ds, err := Simulate(SimConfig{
		SampleSize: 32, Replicates: 1, SegSites: 400, Rho: 120, Seed: 20260706,
	}, 250000)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Scan(ds, Config{GridSize: 25, MinWindow: 4000, MaxWindow: 50000})
	if err != nil {
		t.Fatal(err)
	}
	best, ok := rep.Best()
	if !ok {
		t.Fatal("no best result")
	}

	const (
		wantCenter = 63108.67879679959
		wantOmega  = 202.90684829087166
		wantLeft   = 62694.65925366606
		wantRight  = 67594.55547279993
	)
	if best.Center != wantCenter {
		t.Errorf("best center = %v, want %v", best.Center, wantCenter)
	}
	if best.MaxOmega != wantOmega {
		t.Errorf("best ω = %v, want %v", best.MaxOmega, wantOmega)
	}
	if best.LeftPos != wantLeft || best.RightPos != wantRight {
		t.Errorf("best window = [%v, %v], want [%v, %v]",
			best.LeftPos, best.RightPos, wantLeft, wantRight)
	}
	if rep.OmegaScores != 121519 {
		t.Errorf("ω scores = %d, want 121519", rep.OmegaScores)
	}
	if rep.R2Computed != 49534 {
		t.Errorf("r² computed = %d, want 49534", rep.R2Computed)
	}

	wantSamples := map[int]float64{
		5:  4.917732766538198,
		10: 5.318195149616676,
		15: 6.795467386255842,
		20: 2.6201055588922975,
	}
	for idx, want := range wantSamples {
		got := rep.Results[idx]
		if !got.Valid || got.MaxOmega != want {
			t.Errorf("result[%d] ω = %v (valid=%v), want %v", idx, got.MaxOmega, got.Valid, want)
		}
	}
	if rep.Results[0].Valid {
		t.Error("result[0] should be invalid (left side below MinSNPs)")
	}

	// The pinned values must also hold bit-identically through every
	// backend in the execution registry (plus the CPU thread-count,
	// streamed and LD engine variants): one table-driven loop replaces the per-backend
	// comparisons, and a backend added to the registry later joins the
	// contract automatically via the exec.Backends() sweep below.
	p := Config{GridSize: 25, MinWindow: 4000, MaxWindow: 50000}.params().WithDefaults()
	src, err := NewDatasetSource(ds)
	if err != nil {
		t.Fatal(err)
	}
	regCases := []struct {
		name    string
		backend string
		opts    exec.Options
	}{
		{"cpu/serial", "cpu", exec.Options{}},
		{"cpu/2threads", "cpu", exec.Options{Threads: 2}},
		{"cpu/sharded-3threads", "cpu", exec.Options{Threads: 3}},
		{"cpu/8threads", "cpu", exec.Options{Threads: 8}},
		{"cpu/stream-3threads", "cpu", exec.Options{Threads: 3, Stream: src, ChunkSNPs: 120}},
		{"cpu/gemm-ld", "cpu", exec.Options{UseGEMMLD: true}},
		// ω-kernel variants: each forced kernel, alone and at two thread
		// counts, plus auto pushed down each dispatch path
		// via the Nthr override — all must reproduce the golden results.
		{"cpu/kernel-scalar", "cpu", exec.Options{OmegaKernel: OmegaKernelScalar}},
		{"cpu/kernel-blocked", "cpu", exec.Options{OmegaKernel: OmegaKernelBlocked}},
		{"cpu/kernel-blocked/2threads", "cpu", exec.Options{OmegaKernel: OmegaKernelBlocked, Threads: 2}},
		{"cpu/kernel-blocked/sharded", "cpu", exec.Options{OmegaKernel: OmegaKernelBlocked, Threads: 3}},
		{"cpu/kernel-auto/all-blocked", "cpu", exec.Options{OmegaKernel: OmegaKernelAuto, OmegaNthr: 1}},
		{"cpu/kernel-auto/all-scalar", "cpu", exec.Options{OmegaKernel: OmegaKernelAuto, OmegaNthr: 1 << 30}},
		{"gpu-sim", "gpu-sim", exec.Options{}},
		{"fpga-sim", "fpga-sim", exec.Options{}},
	}
	for _, b := range exec.Backends() {
		covered := false
		for _, c := range regCases {
			covered = covered || c.backend == b.Name()
		}
		if !covered {
			regCases = append(regCases, struct {
				name    string
				backend string
				opts    exec.Options
			}{b.Name(), b.Name(), exec.Options{}})
		}
	}
	for _, c := range regCases {
		t.Run(c.name, func(t *testing.T) {
			be, err := exec.Lookup(c.backend)
			if err != nil {
				t.Fatal(err)
			}
			out, err := be.Scan(context.Background(), ds, p, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Results) != len(rep.Results) {
				t.Fatalf("%d results, want %d", len(out.Results), len(rep.Results))
			}
			for i := range rep.Results {
				if out.Results[i] != rep.Results[i] {
					t.Fatalf("result[%d] = %+v, want %+v (bit-identical contract)",
						i, out.Results[i], rep.Results[i])
				}
			}
			if out.Stats.OmegaScores != rep.OmegaScores {
				t.Errorf("ω scores = %d, want %d", out.Stats.OmegaScores, rep.OmegaScores)
			}
		})
	}

	// Sanity: golden ω is a plain finite number.
	if math.IsNaN(wantOmega) || math.IsInf(wantOmega, 0) {
		t.Fatal("golden value corrupt")
	}
}

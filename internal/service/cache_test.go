package service

import (
	"testing"

	"omegago"
	"omegago/api"
)

// TestCacheKeyParamsSensitivity: identical bits + identical params map
// to the same key; every single-field parameter delta maps to a
// different key.
func TestCacheKeyParamsSensitivity(t *testing.T) {
	ds := testDataset(t, 101)
	hash, err := omegago.DatasetContentHash(ds)
	if err != nil {
		t.Fatal(err)
	}
	base := api.ScanParams{GridSize: 32, MaxWindow: 20000}

	if k1, k2 := cacheKey(hash, base, api.KindScan), cacheKey(hash, base, api.KindScan); k1 != k2 {
		t.Fatalf("same bits + same params gave different keys: %s vs %s", k1, k2)
	}

	deltas := map[string]api.ScanParams{
		"grid_size":         {GridSize: 33, MaxWindow: 20000},
		"min_window":        {GridSize: 32, MaxWindow: 20000, MinWindow: 100},
		"max_window":        {GridSize: 32, MaxWindow: 25000},
		"max_snps_per_side": {GridSize: 32, MaxWindow: 20000, MaxSNPsPerSide: 5},
		"backend":           {GridSize: 32, MaxWindow: 20000, Backend: "gpu-sim"},
		"scheduler":         {GridSize: 32, MaxWindow: 20000, Scheduler: "sharded"},
		"omega_kernel":      {GridSize: 32, MaxWindow: 20000, OmegaKernel: "blocked"},
		"kernel_nthr":       {GridSize: 32, MaxWindow: 20000, KernelNthr: 9},
		"threads":           {GridSize: 32, MaxWindow: 20000, Threads: 4},
		"gemm_ld":           {GridSize: 32, MaxWindow: 20000, UseGEMMLD: true},
		"chunk_snps":        {GridSize: 32, MaxWindow: 20000, ChunkSNPs: 64},
	}
	want := cacheKey(hash, base, api.KindScan)
	seen := map[string]string{want: "base"}
	for field, p := range deltas {
		got := cacheKey(hash, p, api.KindScan)
		if got == want {
			t.Errorf("delta in %s did not change the cache key", field)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("deltas %s and %s collide", field, prev)
		}
		seen[got] = field
	}

	// The kind is part of the identity: a stream result over the same
	// dataset and parameters never masquerades as a scan result.
	for kind, p := range map[string]api.ScanParams{api.KindBatch: base, api.KindStream: base} {
		got := cacheKey(hash, p, kind)
		if got == want {
			t.Errorf("kind %s did not change the cache key", kind)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("kind %s collides with %s", kind, prev)
		}
		seen[got] = "kind:" + kind
	}
}

// TestCacheKeyNormalizedAliases: alias spellings of the same resolved
// configuration ("gpu" vs "gpu-sim") coincide once normalized through
// ConfigFromParams∘ParamsFromConfig — the form submit() keys on.
func TestCacheKeyNormalizedAliases(t *testing.T) {
	ds := testDataset(t, 103)
	hash, err := omegago.DatasetContentHash(ds)
	if err != nil {
		t.Fatal(err)
	}
	normalize := func(p api.ScanParams) api.ScanParams {
		cfg, err := omegago.ConfigFromParams(p)
		if err != nil {
			t.Fatal(err)
		}
		return omegago.ParamsFromConfig(cfg)
	}
	a := cacheKey(hash, normalize(api.ScanParams{Backend: "gpu"}), api.KindScan)
	b := cacheKey(hash, normalize(api.ScanParams{Backend: "gpu-sim"}), api.KindScan)
	if a != b {
		t.Errorf("alias spellings produced different keys: %s vs %s", a, b)
	}
	c := cacheKey(hash, normalize(api.ScanParams{Backend: "fpga-sim"}), api.KindScan)
	if c == a {
		t.Error("distinct backends produced the same key")
	}

	// The retired scheduler field selects nothing: every spelling an
	// old request may carry shares the entry of a request without it —
	// which is also the key such a default request has always had.
	plain := cacheKey(hash, api.ScanParams{Threads: 2}, api.KindScan)
	for _, sched := range []string{"", "auto", "snapshot", "sharded"} {
		if got := cacheKey(hash, normalize(api.ScanParams{Threads: 2, Scheduler: sched}), api.KindScan); got != plain {
			t.Errorf("scheduler %q normalized to a different key", sched)
		}
	}
}

// TestCacheKeyFlippedBit: flipping a single allele bit changes the
// dataset content hash and therefore the cache key.
func TestCacheKeyFlippedBit(t *testing.T) {
	ds1 := testDataset(t, 107)
	ds2 := testDataset(t, 107) // same seed: identical bits
	h1, err := omegago.DatasetContentHash(ds1)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := omegago.DatasetContentHash(ds2)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("same-seed simulations hash differently; fixture is not deterministic")
	}

	row := ds2.Matrix.Row(0)
	row.Set(0, !row.Get(0))
	h2, err = omegago.DatasetContentHash(ds2)
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Fatal("flipping one bit did not change the content hash")
	}

	p := api.ScanParams{GridSize: 16}
	if cacheKey(h1, p, api.KindScan) == cacheKey(h2, p, api.KindScan) {
		t.Error("flipped bit did not change the cache key")
	}
}

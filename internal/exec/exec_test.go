package exec

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"omegago/internal/harness"
	"omegago/internal/ld"
	"omegago/internal/obs"
	"omegago/internal/omega"
	"omegago/internal/seqio"
)

func testParams() omega.Params {
	return omega.Params{GridSize: 20, MaxWindow: 20000}.WithDefaults()
}

// TestRegistry pins the registered backend set: exactly the three
// engines of the paper's Fig. 3 workflow, resolvable by name, sorted.
func TestRegistry(t *testing.T) {
	var got []string
	for _, b := range Backends() {
		got = append(got, b.Name())
	}
	want := []string{"cpu", "fpga-sim", "gpu-sim"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Backends() = %v, want %v", got, want)
	}
	for _, name := range want {
		b, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if b.Name() != name {
			t.Errorf("Lookup(%q).Name() = %q", name, b.Name())
		}
	}
	if _, err := Lookup("tpu-sim"); err == nil {
		t.Error("Lookup of an unregistered backend succeeded")
	} else if !strings.Contains(err.Error(), "cpu") {
		t.Errorf("lookup error %q does not list the registered names", err)
	}
}

// TestBackendEquivalence asserts every registered backend reproduces
// the serial CPU reference bit-identically through the uniform Scan
// interface — the invariant the whole exec layer rests on.
func TestBackendEquivalence(t *testing.T) {
	a, err := harness.Dataset(600, 40, 271828)
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	ref, _, err := omega.Scan(context.Background(), a, p, ld.Direct, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range Backends() {
		out, err := b.Scan(context.Background(), a, p, Options{})
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		if len(out.Results) != len(ref) {
			t.Fatalf("%s: %d results, want %d", b.Name(), len(out.Results), len(ref))
		}
		for i := range ref {
			if out.Results[i] != ref[i] {
				t.Fatalf("%s: result[%d] = %+v, want %+v", b.Name(), i, out.Results[i], ref[i])
			}
		}
		if out.Stats.OmegaScores == 0 || out.Stats.R2Computed == 0 {
			t.Errorf("%s: empty unified stats %+v", b.Name(), out.Stats)
		}
	}
}

// TestBackendCancellation verifies that a pre-cancelled context aborts
// every backend with ctx.Err() before any result is produced.
func TestBackendCancellation(t *testing.T) {
	a, err := harness.Dataset(400, 32, 314159)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, b := range Backends() {
		out, err := b.Scan(ctx, a, testParams(), Options{Threads: 2})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", b.Name(), err)
		}
		if out != nil {
			t.Errorf("%s: non-nil output after cancellation", b.Name())
		}
	}
}

// shardCounter counts the engine's per-shard summary spans.
type shardCounter struct {
	mu     sync.Mutex
	shards int
}

func (c *shardCounter) OnProgress(obs.Progress) {}

func (c *shardCounter) OnPhase(ph obs.Phase) {
	if strings.HasPrefix(ph.Name, "shard ") {
		c.mu.Lock()
		c.shards++
		c.mu.Unlock()
	}
}

// TestCPUSchedulerSelection pins how the CPU adapter routes Threads to
// the one scan engine: up to one thread scans serially (no shard spans,
// no duplication); more cut a resident grid into min(Threads, grid)
// shards, and a streamed scan into that many shards per chunk — with
// results identical on every route.
func TestCPUSchedulerSelection(t *testing.T) {
	a, err := harness.Dataset(300, 24, 161803)
	if err != nil {
		t.Fatal(err)
	}
	p := omega.Params{GridSize: 6, MaxWindow: 20000}.WithDefaults()
	ref, _, err := omega.Scan(context.Background(), a, p, ld.Direct, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	be, err := Lookup("cpu")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		threads    int
		stream     bool
		wantShards int // per chunk when streaming
	}{
		{0, false, 0}, {1, false, 0}, {4, false, 4}, {8, false, 6},
		{1, true, 0}, {3, true, 3},
	}
	for _, c := range cases {
		opts := Options{Threads: c.threads}
		if c.stream {
			if opts.Stream, err = seqio.NewAlignmentSource(a); err != nil {
				t.Fatal(err)
			}
			opts.ChunkSNPs = 1 << 20 // one chunk
		}
		sc := &shardCounter{}
		opts.Meter = obs.NewMeter("cpu", p.GridSize, sc, nil)
		out, err := be.Scan(context.Background(), a, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if sc.shards != c.wantShards {
			t.Errorf("threads=%d stream=%v: %d shard spans, want %d", c.threads, c.stream, sc.shards, c.wantShards)
		}
		if c.wantShards == 0 && out.Stats.R2Duplicated != 0 {
			t.Errorf("threads=%d stream=%v: serial route duplicated %d cells", c.threads, c.stream, out.Stats.R2Duplicated)
		}
		for i := range ref {
			if out.Results[i] != ref[i] {
				t.Fatalf("threads=%d stream=%v: result[%d] = %+v, want %+v", c.threads, c.stream, i, out.Results[i], ref[i])
			}
		}
	}
}

// TestStatsAdd checks the batch aggregation covers every counter.
func TestStatsAdd(t *testing.T) {
	a := Stats{Grid: 1, OmegaScores: 2, R2Computed: 3, R2Reused: 4, R2Duplicated: 5,
		LDSeconds: 1, OmegaSeconds: 2, WallSeconds: 4,
		KernelILaunches: 6, KernelIILaunches: 7, OrderSwitches: 8, BytesTransferred: 9,
		HardwareOmegas: 10, SoftwareOmegas: 11, Cycles: 12,
		OmegaKernelScalar: 13, OmegaKernelBlocked: 14}
	sum := a
	sum.Add(a)
	want := Stats{Grid: 2, OmegaScores: 4, R2Computed: 6, R2Reused: 8, R2Duplicated: 10,
		LDSeconds: 2, OmegaSeconds: 4, WallSeconds: 8,
		KernelILaunches: 12, KernelIILaunches: 14, OrderSwitches: 16, BytesTransferred: 18,
		HardwareOmegas: 20, SoftwareOmegas: 22, Cycles: 24,
		OmegaKernelScalar: 26, OmegaKernelBlocked: 28}
	if sum != want {
		t.Fatalf("Add: got %+v, want %+v", sum, want)
	}
}

// TestCPUKernelOptionDispatch: the exec-layer kernel option must force
// the selected ω kernel, keep results bit-identical, and surface the
// dispatch split through Stats and the labeled Prometheus counters.
func TestCPUKernelOptionDispatch(t *testing.T) {
	a, err := harness.Dataset(400, 32, 161803)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := Lookup("cpu")
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	ref, err := cpu.Scan(context.Background(), a, p, Options{OmegaKernel: omega.KernelScalar})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.OmegaKernelScalar == 0 || ref.Stats.OmegaKernelBlocked != 0 {
		t.Fatalf("forced scalar dispatch: %+v", ref.Stats)
	}
	blk, err := cpu.Scan(context.Background(), a, p, Options{OmegaKernel: omega.KernelBlocked})
	if err != nil {
		t.Fatal(err)
	}
	if blk.Stats.OmegaKernelBlocked == 0 || blk.Stats.OmegaKernelScalar != 0 {
		t.Fatalf("forced blocked dispatch: %+v", blk.Stats)
	}
	for i := range ref.Results {
		if blk.Results[i] != ref.Results[i] {
			t.Fatalf("kernel option broke bit identity at result %d", i)
		}
	}
	// OmegaNthr drives the auto kernel down one path per extreme.
	aut, err := cpu.Scan(context.Background(), a, p, Options{OmegaNthr: 1})
	if err != nil {
		t.Fatal(err)
	}
	if aut.Stats.OmegaKernelScalar != 0 || aut.Stats.OmegaKernelBlocked == 0 {
		t.Fatalf("auto Nthr=1 dispatch: %+v", aut.Stats)
	}
	met := obs.NewMetrics(obs.NewRegistry())
	blk.Stats.Publish(met)
	if met.KernelDispatchBlocked.Value() != blk.Stats.OmegaKernelBlocked ||
		met.KernelDispatchScalar.Value() != 0 {
		t.Fatalf("published dispatch counters scalar=%d blocked=%d, want 0/%d",
			met.KernelDispatchScalar.Value(), met.KernelDispatchBlocked.Value(),
			blk.Stats.OmegaKernelBlocked)
	}
}

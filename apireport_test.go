package omegago

import (
	"context"
	"errors"
	"io/fs"
	"strings"
	"testing"

	"omegago/api"
	"omegago/internal/omega"
)

// fakeHash is a well-formed (64-hex-digit) stand-in content hash for
// conversion tests that never resolve a real dataset.
const fakeHash = "deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef"

// TestRegistrySymmetry iterates every name registry of the package and
// checks Parse∘String is the identity for all registered values, plus
// the documented alias spellings.
func TestRegistrySymmetry(t *testing.T) {
	t.Run("backend", func(t *testing.T) {
		for _, name := range backendNames.Names() {
			b, err := ParseBackend(name)
			if err != nil {
				t.Fatalf("ParseBackend(%q): %v", name, err)
			}
			if got := b.String(); got != name {
				t.Errorf("ParseBackend(%q).String() = %q", name, got)
			}
		}
		for alias, want := range map[string]Backend{"gpu": BackendGPU, "fpga": BackendFPGA} {
			b, err := ParseBackend(alias)
			if err != nil || b != want {
				t.Errorf("ParseBackend(%q) = %v, %v; want %v", alias, b, err, want)
			}
		}
		if _, err := ParseBackend("tpu"); !errors.Is(err, ErrUnknownBackend) {
			t.Errorf("ParseBackend(tpu) err = %v, want ErrUnknownBackend", err)
		}
	})
	t.Run("scheduler", func(t *testing.T) {
		// The retired scheduler names still parse — and all normalize to
		// the one engine, so ParamsFromConfig never emits the field.
		for _, name := range []string{"", "auto", "snapshot", "sharded"} {
			cfg, err := ConfigFromParams(api.ScanParams{Scheduler: name, Threads: 3})
			if err != nil {
				t.Fatalf("ConfigFromParams(scheduler %q): %v", name, err)
			}
			if got := ParamsFromConfig(cfg); got != (api.ScanParams{Threads: 3}) {
				t.Errorf("scheduler %q normalized to %+v", name, got)
			}
		}
		if _, err := ConfigFromParams(api.ScanParams{Scheduler: "roundrobin"}); err == nil ||
			!strings.Contains(err.Error(), "auto, snapshot, sharded") {
			t.Errorf("scheduler roundrobin: err = %v, want one naming the accepted values", err)
		}
	})
	t.Run("omega-kernel", func(t *testing.T) {
		for _, name := range omega.KindNames.Names() {
			k, err := ParseOmegaKernel(name)
			if err != nil {
				t.Fatalf("ParseOmegaKernel(%q): %v", name, err)
			}
			if got := k.String(); got != name {
				t.Errorf("ParseOmegaKernel(%q).String() = %q", name, got)
			}
		}
		// "" aliases auto: the zero wire value selects the default.
		if k, err := ParseOmegaKernel(""); err != nil || k != OmegaKernelAuto {
			t.Errorf("ParseOmegaKernel(\"\") = %v, %v; want auto", k, err)
		}
	})
	t.Run("out-of-range String", func(t *testing.T) {
		if got := Backend(99).String(); !strings.Contains(got, "99") {
			t.Errorf("Backend(99).String() = %q", got)
		}
		if backendNames.Valid(Backend(99)) {
			t.Error("Backend(99) reported valid")
		}
	})
}

// TestValidateExecOptions is the Config.Validate audit table: every
// invalid execution field wraps ErrBadExecOption (HTTP 400, exit 4).
func TestValidateExecOptions(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want error
	}{
		{"negative threads", Config{Threads: -1}, ErrBadExecOption},
		{"negative batch workers", Config{BatchWorkers: -2}, ErrBadExecOption},
		{"negative kernel nthr", Config{KernelNthr: -5}, ErrBadExecOption},
		{"kernel out of range", Config{OmegaKernel: OmegaKernel(99)}, ErrBadExecOption},
		{"negative chunk", Config{ChunkSNPs: -1}, ErrBadGrid},
		{"negative grid", Config{GridSize: -1}, ErrBadGrid},
		{"backend out of range", Config{Backend: Backend(99)}, ErrUnknownBackend},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if !errors.Is(err, tc.want) {
				t.Errorf("Validate() = %v, want %v", err, tc.want)
			}
			// Every validation failure must classify as a 400 for omegad.
			if st := APIError(err).HTTPStatus(); st != 400 {
				t.Errorf("HTTPStatus = %d, want 400", st)
			}
		})
	}
	if err := (Config{Threads: 8, OmegaKernel: OmegaKernelBlocked, KernelNthr: 100}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestAPIErrorClasses pins the sentinel-to-wire-class mapping shared by
// the CLI exit path and the omegad HTTP status path.
func TestAPIErrorClasses(t *testing.T) {
	cases := []struct {
		name string
		err  error
		code string
	}{
		{"nil", nil, ""},
		{"plain", errors.New("boom"), api.CodeFailure},
		{"deadline", context.DeadlineExceeded, api.CodeTimeout},
		{"canceled", context.Canceled, api.CodeTimeout},
		{"bad grid", ErrBadGrid, api.CodeConfig},
		{"bad exec option", ErrBadExecOption, api.CodeConfig},
		{"unknown backend", ErrUnknownBackend, api.CodeConfig},
		{"stream unsupported", ErrStreamUnsupported, api.CodeConfig},
		{"bad calibration", ErrBadCalibration, api.CodeConfig},
		{"no snps", ErrNoSNPs, api.CodeInput},
		{"not exist", fs.ErrNotExist, api.CodeInput},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := APIError(tc.err)
			if tc.err == nil {
				if e != nil {
					t.Fatalf("APIError(nil) = %+v", e)
				}
				return
			}
			if e.Code != tc.code {
				t.Errorf("APIError(%v).Code = %s, want %s", tc.err, e.Code, tc.code)
			}
		})
	}
	// A calibration error that also wraps fs.ErrNotExist (a missing
	// table file) must classify as config, not input.
	both := errors.Join(ErrBadCalibration, fs.ErrNotExist)
	if e := APIError(both); e.Code != api.CodeConfig {
		t.Errorf("calibration+notexist classified %s, want config", e.Code)
	}
}

// TestParamsConfigRoundTrip checks ConfigFromParams and
// ParamsFromConfig are inverses over the wire-visible fields, and that
// alias spellings normalize to canonical ones.
func TestParamsConfigRoundTrip(t *testing.T) {
	p := api.ScanParams{
		GridSize:       64,
		MinWindow:      1000,
		MaxWindow:      50000,
		MaxSNPsPerSide: 10,
		Backend:        "fpga-sim",
		OmegaKernel:    "blocked",
		KernelNthr:     42,
		Threads:        3,
		UseGEMMLD:      true,
		ChunkSNPs:      128,
	}
	cfg, err := ConfigFromParams(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := ParamsFromConfig(cfg); got != p {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, p)
	}

	// Zero params → zero scan config fields.
	zero, err := ConfigFromParams(api.ScanParams{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ParamsFromConfig(zero); got != (api.ScanParams{}) {
		t.Errorf("zero params round-tripped to %+v", got)
	}

	// Alias spelling normalizes to the canonical name.
	cfg, err = ConfigFromParams(api.ScanParams{Backend: "gpu"})
	if err != nil {
		t.Fatal(err)
	}
	if got := ParamsFromConfig(cfg).Backend; got != "gpu-sim" {
		t.Errorf("alias gpu normalized to %q, want gpu-sim", got)
	}

	// Bad enum spellings surface as errors.
	if _, err := ConfigFromParams(api.ScanParams{Backend: "tpu"}); !errors.Is(err, ErrUnknownBackend) {
		t.Errorf("bad backend err = %v", err)
	}
	if _, err := ConfigFromParams(api.ScanParams{Scheduler: "nope"}); err == nil {
		t.Error("bad scheduler accepted")
	}
	if _, err := ConfigFromParams(api.ScanParams{OmegaKernel: "nope"}); err == nil {
		t.Error("bad kernel accepted")
	}
}

// TestAPIReportConversion checks the Report → api.ScanReport
// marshaller: invalid rows carry no ω payload, and two scans of the
// same input are byte-identical once Canonical strips timing.
func TestAPIReportConversion(t *testing.T) {
	ds, err := Simulate(SimConfig{SampleSize: 10, Replicates: 1, SegSites: 80, Seed: 5}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{GridSize: 12, MaxWindow: 30000}
	rep, err := Scan(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := rep.APIReport("lbl", fakeHash)
	if w.Schema != api.SchemaVersion || w.Label != "lbl" || w.DatasetHash != fakeHash {
		t.Errorf("header fields = %+v", w)
	}
	if w.Backend != "cpu" {
		t.Errorf("backend = %q", w.Backend)
	}
	if len(w.Results) != len(rep.Results) {
		t.Fatalf("row count %d != %d", len(w.Results), len(rep.Results))
	}
	for i, row := range w.Results {
		if !row.Valid && (row.Omega != 0 || row.Scores != 0 || row.WinLeft != 0 || row.WinRight != 0) {
			t.Errorf("invalid row %d carries ω payload: %+v", i, row)
		}
	}
	if w.Timing == nil || w.Timing.WallSeconds < 0 {
		t.Errorf("timing = %+v", w.Timing)
	}

	rep2, err := Scan(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := rep.APIReport("lbl", fakeHash).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := rep2.APIReport("lbl", fakeHash).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(c1) != string(c2) {
		t.Errorf("repeat scans differ canonically:\n%s\nvs\n%s", c1, c2)
	}
}

package omegago_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"omegago"
	"omegago/api"
	"omegago/internal/exec"
)

// TestObsParseBackendSymmetry walks the exec registry: every registered
// backend name must round-trip through ParseBackend and Backend.String,
// so a new engine cannot be registered without the public parser
// knowing it.
func TestObsParseBackendSymmetry(t *testing.T) {
	backends := exec.Backends()
	if len(backends) < 3 {
		t.Fatalf("registry has %d backends, want ≥ 3", len(backends))
	}
	for _, be := range backends {
		name := be.Name()
		b, err := omegago.ParseBackend(name)
		if err != nil {
			t.Errorf("ParseBackend(%q): %v", name, err)
			continue
		}
		if b.String() != name {
			t.Errorf("ParseBackend(%q).String() = %q", name, b.String())
		}
	}
	// Bare accelerator aliases resolve to the simulated engines.
	for alias, want := range map[string]omegago.Backend{
		"gpu":  omegago.BackendGPU,
		"fpga": omegago.BackendFPGA,
	} {
		if b, err := omegago.ParseBackend(alias); err != nil || b != want {
			t.Errorf("ParseBackend(%q) = %v, %v", alias, b, err)
		}
	}
	if _, err := omegago.ParseBackend("tpu"); !errors.Is(err, omegago.ErrUnknownBackend) {
		t.Errorf("ParseBackend(tpu) = %v, want ErrUnknownBackend", err)
	}
}

// TestObsParseSchedulerSymmetry: the scheduler check the CLI's -sched
// flag and the wire scheduler field share accepts exactly the retired
// names — so saved configs keep parsing — and rejects anything else,
// naming the accepted values.
func TestObsParseSchedulerSymmetry(t *testing.T) {
	for _, name := range []string{"", "auto", "snapshot", "sharded"} {
		if err := api.CheckScheduler(name); err != nil {
			t.Errorf("CheckScheduler(%q) = %v", name, err)
		}
	}
	if err := api.CheckScheduler("bogus"); err == nil || !strings.Contains(err.Error(), "auto, snapshot, sharded") {
		t.Errorf("CheckScheduler(bogus) = %v, want an error naming the accepted values", err)
	}
}

// Calibration tables exercised by TestObsConfigValidate: a pristine
// default, a schema from the future, and an out-of-range GPU factor.
var (
	defaultCal   = omegago.DefaultCalibration()
	badSchemaCal = func() omegago.Calibration {
		c := omegago.DefaultCalibration()
		c.Schema = 99
		return c
	}()
	badFactorCal = func() omegago.Calibration {
		c := omegago.DefaultCalibration()
		c.GPU.LDPeakEfficiency = 1.5
		return c
	}()
)

func TestObsConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  omegago.Config
		want error
	}{
		{"defaults", omegago.Config{}, nil},
		{"negative grid", omegago.Config{GridSize: -4}, omegago.ErrBadGrid},
		{"negative min window", omegago.Config{MinWindow: -1}, omegago.ErrBadGrid},
		{"negative max window", omegago.Config{MaxWindow: -1}, omegago.ErrBadGrid},
		{"inverted windows", omegago.Config{MinWindow: 100, MaxWindow: 50}, omegago.ErrBadGrid},
		{"negative snps per side", omegago.Config{MaxSNPsPerSide: -1}, omegago.ErrBadGrid},
		{"unknown backend", omegago.Config{Backend: omegago.Backend(99)}, omegago.ErrUnknownBackend},
		{"default calibration", omegago.Config{Calibration: &defaultCal}, nil},
		{"corrupt calibration schema", omegago.Config{Calibration: &badSchemaCal}, omegago.ErrBadCalibration},
		{"corrupt calibration factor", omegago.Config{Calibration: &badFactorCal}, omegago.ErrBadCalibration},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if c.want == nil {
			if err != nil {
				t.Errorf("%s: Validate() = %v, want nil", c.name, err)
			}
		} else if !errors.Is(err, c.want) {
			t.Errorf("%s: Validate() = %v, want %v", c.name, err, c.want)
		}
	}
}

// TestObsScanSentinelErrors pins that Scan and ScanBatch surface the
// sentinels so callers (and the CLI exit-code map) can errors.Is them.
func TestObsScanSentinelErrors(t *testing.T) {
	if _, err := omegago.Scan(nil, omegago.Config{}); !errors.Is(err, omegago.ErrNoSNPs) {
		t.Errorf("Scan(nil dataset) = %v, want ErrNoSNPs", err)
	}
	if _, err := omegago.Scan(&omegago.Dataset{}, omegago.Config{}); !errors.Is(err, omegago.ErrNoSNPs) {
		t.Errorf("Scan(empty dataset) = %v, want ErrNoSNPs", err)
	}
	ds := batchDatasets(t, 1, 907)[0]
	if _, err := omegago.Scan(ds, omegago.Config{GridSize: -4}); !errors.Is(err, omegago.ErrBadGrid) {
		t.Errorf("Scan(bad grid) = %v, want ErrBadGrid", err)
	}
	if _, err := omegago.ScanBatch(context.Background(), []*omegago.Dataset{ds},
		omegago.Config{Backend: omegago.Backend(7)}); !errors.Is(err, omegago.ErrUnknownBackend) {
		t.Errorf("ScanBatch(bad backend) = %v, want ErrUnknownBackend", err)
	}
}

package omegago_test

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIPipeline builds the command-line tools and drives the full
// user workflow end to end: simulate → convert → LD stats → ω scan
// (with report, HTML and trace outputs) → batch scan. This is the
// closest thing to a user's first session.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bin := map[string]string{}
	for _, tool := range []string{"msgo", "omegago", "ldgo", "convert"} {
		path := filepath.Join(dir, tool)
		out, err := exec.Command("go", "build", "-o", path, "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
		bin[tool] = path
	}
	run := func(name string, args ...string) string {
		t.Helper()
		out, err := exec.Command(bin[name], args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	// 1. Simulate two replicates with a sweep.
	msPath := filepath.Join(dir, "sweep.ms")
	msOut := run("msgo", "40", "2", "-s", "250", "-r", "60",
		"-sweep-pos", "0.5", "-sweep-alpha", "2000", "-seed", "7")
	if err := os.WriteFile(msPath, []byte(msOut), 0o644); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msOut, "segsites: 250") {
		t.Fatalf("msgo output malformed:\n%.200s", msOut)
	}

	// 2. Convert replicate 1 to VCF.
	vcfPath := filepath.Join(dir, "sweep.vcf")
	run("convert", "-in", msPath, "-informat", "ms", "-length", "200000",
		"-out", vcfPath, "-outformat", "vcf")
	vcf, err := os.ReadFile(vcfPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(vcf), "#CHROM") {
		t.Fatal("convert produced no VCF header")
	}

	// 3. LD decay profile.
	ldOut := run("ldgo", "-input", msPath, "-length", "200000", "-decay", "5")
	if !strings.Contains(ldOut, "# bin_center_bp") {
		t.Fatalf("ldgo output malformed:\n%s", ldOut)
	}

	// 4. Scan the ms input with every artifact flag.
	reportPath := filepath.Join(dir, "scan.report")
	htmlPath := filepath.Join(dir, "scan.html")
	tracePath := filepath.Join(dir, "scan.trace")
	scanOut := run("omegago", "-input", msPath, "-length", "200000",
		"-grid", "20", "-maxwin", "40000", "-quiet", "-top", "1",
		"-report", reportPath, "-html", htmlPath, "-trace", tracePath)
	if !strings.Contains(scanOut, "top 1 sweep candidates") {
		t.Fatalf("scan output malformed:\n%s", scanOut)
	}
	for _, p := range []string{reportPath, htmlPath, tracePath} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("artifact %s missing or empty: %v", p, err)
		}
	}

	// 5. Scan the converted VCF and check the candidate agrees with the
	// ms scan (same data, same grid).
	vcfScan := run("omegago", "-input", vcfPath, "-format", "vcf",
		"-grid", "20", "-maxwin", "40000", "-quiet", "-top", "1")
	msBest := candidateLine(t, scanOut)
	vcfBest := candidateLine(t, vcfScan)
	// Positions differ by VCF integer rounding only; compare the ω value
	// formatted in the candidate line.
	if msOmega, vcfOmega := omegaField(t, msBest), omegaField(t, vcfBest); msOmega != vcfOmega {
		t.Errorf("ms scan candidate %q vs VCF scan %q", msBest, vcfBest)
	}

	// 6. Batch mode over both replicates: -replicate all and the
	// -all-replicates worker pool must produce the same summary rows.
	batch := run("omegago", "-input", msPath, "-length", "200000",
		"-grid", "10", "-maxwin", "40000", "-replicate", "all")
	if strings.Count(batch, "\n") < 4 || !strings.Contains(batch, "batch scan: 2 replicates") {
		t.Fatalf("batch output malformed:\n%s", batch)
	}
	if !strings.Contains(batch, "2 scanned, 0 skipped, 0 failed") {
		t.Fatalf("batch aggregate footer missing:\n%s", batch)
	}
	pooled := run("omegago", "-input", msPath, "-length", "200000",
		"-grid", "10", "-maxwin", "40000", "-all-replicates", "-batch-workers", "2")
	if replicateRows(batch) != replicateRows(pooled) {
		t.Errorf("-all-replicates rows diverge from -replicate all:\n%s\nvs\n%s", batch, pooled)
	}

	// 7. Accelerator backends agree through the CLI too.
	gpuScan := run("omegago", "-input", msPath, "-length", "200000",
		"-grid", "20", "-maxwin", "40000", "-quiet", "-top", "1", "-backend", "gpu")
	if omegaField(t, candidateLine(t, gpuScan)) != omegaField(t, msBest) {
		t.Error("GPU backend CLI scan diverged")
	}

	// 8. CPU-only flags on an accelerator backend, and the deprecated
	// -sched anywhere, warn on stderr instead of being swallowed
	// silently.
	warned := run("omegago", "-input", msPath, "-length", "200000",
		"-grid", "10", "-maxwin", "40000", "-quiet", "-top", "1",
		"-backend", "fpga", "-sched", "sharded", "-threads", "4")
	for _, flag := range []string{"-sched", "-threads"} {
		if !strings.Contains(warned, "warning") || !strings.Contains(warned, flag) {
			t.Errorf("no stderr warning for %s with -backend fpga:\n%s", flag, warned)
		}
	}
}

// TestObsCLIExitCodesAndFlags checks the CLI's exit-code classes and
// smokes the observability flags (-progress, -metrics-addr).
func TestObsCLIExitCodesAndFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bin := map[string]string{}
	for _, tool := range []string{"msgo", "omegago"} {
		path := filepath.Join(dir, tool)
		out, err := exec.Command("go", "build", "-o", path, "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
		bin[tool] = path
	}
	msOut, err := exec.Command(bin["msgo"], "24", "1", "-s", "150", "-r", "40", "-seed", "11").Output()
	if err != nil {
		t.Fatal(err)
	}
	msPath := filepath.Join(dir, "in.ms")
	if err := os.WriteFile(msPath, msOut, 0o644); err != nil {
		t.Fatal(err)
	}
	runCode := func(args ...string) (int, string) {
		t.Helper()
		out, err := exec.Command(bin["omegago"], args...).CombinedOutput()
		if err == nil {
			return 0, string(out)
		}
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("omegago %v: %v\n%s", args, err, out)
		}
		return ee.ExitCode(), string(out)
	}

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no input", nil, 2},
		{"unknown backend", []string{"-input", msPath, "-backend", "tpu"}, 2},
		{"unknown scheduler", []string{"-input", msPath, "-sched", "eager"}, 2},
		{"missing file", []string{"-input", filepath.Join(dir, "nope.ms")}, 3},
		{"bad grid", []string{"-input", msPath, "-length", "200000", "-grid", "-4"}, 4},
	}
	for _, c := range cases {
		if code, out := runCode(c.args...); code != c.want {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, code, c.want, out)
		}
	}

	// -progress draws a stderr ticker ending in a complete final line.
	if code, out := runCode("-input", msPath, "-length", "200000",
		"-grid", "10", "-maxwin", "40000", "-quiet", "-top", "1", "-progress"); code != 0 {
		t.Errorf("-progress scan failed with exit %d:\n%s", code, out)
	} else if !strings.Contains(out, "10/10 positions (100.0%)") {
		t.Errorf("-progress final line missing:\n%s", out)
	}

	// -metrics-addr binds an ephemeral port and logs where it listens.
	if code, out := runCode("-input", msPath, "-length", "200000",
		"-grid", "10", "-maxwin", "40000", "-quiet", "-top", "1",
		"-metrics-addr", "127.0.0.1:0"); code != 0 {
		t.Errorf("-metrics-addr scan failed with exit %d:\n%s", code, out)
	} else if !strings.Contains(out, "metrics listening on") {
		t.Errorf("-metrics-addr log line missing:\n%s", out)
	}
}

// replicateRows extracts the per-replicate data rows of a batch scan
// (lines not starting with '#'), which must not depend on the batch
// execution strategy.
func replicateRows(out string) string {
	var rows []string
	for _, line := range strings.Split(out, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			rows = append(rows, line)
		}
	}
	return strings.Join(rows, "\n")
}

func candidateLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "1. position") {
			return strings.TrimSpace(line)
		}
	}
	t.Fatalf("no candidate line in:\n%s", out)
	return ""
}

func omegaField(t *testing.T, line string) string {
	t.Helper()
	i := strings.Index(line, "ω = ")
	if i < 0 {
		t.Fatalf("no omega field in %q", line)
	}
	rest := line[i+len("ω = "):]
	return strings.Fields(rest)[0]
}

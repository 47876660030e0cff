// Command perfbench is omegago's end-to-end benchmark. It runs one
// named workload per process and prints, as the last line of standard
// output, one JSON object with the fields correct, attempted, failed
// and metrics. With -trace 0 the metrics are the end-to-end set,
// measured untraced; with -trace 1 they are the per-layer set, taken
// from a separate traced run. README.md explains the workloads and the
// layer → metric → end-to-end map.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload omega-bound --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// instance is one set-up workload: its inputs, references and, for
// omegad-mixed, a running service. Every method runs the same fixed,
// seed-derived operation sequence; nothing is time-boxed.
type instance interface {
	// warmup runs operations whose results are discarded, so lazy
	// initialisation and caches settle before the timed phase.
	warmup() error
	// timed runs the n-op sequence untraced.
	timed(n int) (*phase, error)
	// traced runs the traced passes over about n ops.
	traced(n int) (*tracedRun, error)
	// close releases everything setup acquired.
	close()
}

// workload describes one benchmark workload.
type workload struct {
	name string
	// opsPerSecond fixes the op count of a run: seconds × opsPerSecond,
	// chosen so a run takes about --seconds on a 2-vCPU Xeon. The count
	// depends only on --seconds, so every run does identical work.
	opsPerSecond float64
	// setup builds the inputs of a run of n ops in dir.
	setup func(seed int64, dir string, n int) (instance, error)
}

var workloads = []workload{
	{name: "omega-bound", opsPerSecond: 15, setup: setupOmegaBound},
	{name: "stream-vcf", opsPerSecond: 1.3, setup: setupStreamVCF},
	{name: "omegad-mixed", opsPerSecond: 50, setup: setupOmegad},
}

// setupRounds is how many times a run sets its workload up; setup_s is
// the median, so one slow round does not move it.
const setupRounds = 5

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "nominal run length in seconds (fixes the op count)")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %v, --seconds ≥ 1, --trace 0|1\n", names)
		return 2
	}
	n := int(float64(*seconds)*w.opsPerSecond + 0.5)
	if n < 2 {
		n = 2
	}
	if err := bench(w, *seed, n, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// bench runs the workload's n-op sequence in a fresh run directory and
// prints the result line.
func bench(w *workload, seed int64, n int, traced bool) error {
	decl, err := declaredMetrics(traced)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(".bench_build", "runs"), 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(filepath.Join(".bench_build", "runs"), w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fmt.Println(hostFacts())
	fmt.Printf("workload %s seed %d ops %d traced %v\n", w.name, seed, n, traced)
	var out result
	if traced {
		out, err = runTraced(w, seed, dir, n)
	} else {
		out, err = runTimed(w, seed, dir, n)
	}
	if err != nil {
		return err
	}
	if err := conform(out.Metrics, decl, traced); err != nil {
		return err
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// declaredMetrics reads the metric names and units a run must print
// from BENCHMARK.json at the checkout root: the per-layer list for a
// traced run, the end-to-end list otherwise.
func declaredMetrics(traced bool) (map[string]string, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	type decl struct{ Name, Unit string }
	var doc struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := doc.EndToEnd
	if traced {
		list = doc.PerLayer
	}
	out := make(map[string]string, len(list))
	for _, d := range list {
		out[d.Name] = d.Unit
	}
	return out, nil
}

// conform checks m against the declared metrics: each one present with
// its declared unit and nothing undeclared. With fill set, a declared
// metric the workload does not produce — its layer is bypassed — is
// reported as 0.
func conform(m metrics, decl map[string]string, fill bool) error {
	for name, unit := range decl {
		got, ok := m[name]
		if !ok && fill {
			m.set(name, 0, unit)
			continue
		}
		if !ok || got.Unit != unit {
			return fmt.Errorf("metric %s: got %+v, BENCHMARK.json declares unit %q", name, got, unit)
		}
	}
	for name := range m {
		if _, ok := decl[name]; !ok {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

// setupAll sets the workload up setupRounds times, each in a fresh
// directory, keeps the last instance, warms it up and collects, and
// returns the median set-up time.
func setupAll(w *workload, seed int64, dir string, n int) (instance, float64, error) {
	var times []float64
	var inst instance
	for r := 0; r < setupRounds; r++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		t0 := time.Now()
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", r))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return nil, 0, err
		}
		i, err := w.setup(seed, sub, n)
		if err != nil {
			return nil, 0, fmt.Errorf("%s setup: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
		inst = i
	}
	if err := inst.warmup(); err != nil {
		inst.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()
	return inst, quantile(times, 0.5), nil
}

// runTimed produces the end-to-end metrics from an untraced run.
func runTimed(w *workload, seed int64, dir string, n int) (result, error) {
	inst, setupS, err := setupAll(w, seed, dir, n)
	if err != nil {
		return result{}, err
	}
	defer inst.close()
	ph, err := inst.timed(n)
	if err != nil {
		return result{}, err
	}
	rss := peakRSSMiB()
	if ph.verify != nil {
		ph.verify()
	}
	fmt.Printf("work per op: %s\n", ph.workLine())

	m := metrics{}
	m.set("ops_per_s", float64(ph.attempted())/ph.wall, "1/s")
	m.set("op_p50_s", quantile(ph.opSeconds, 0.5), "s")
	m.set("op_p90_s", quantile(ph.opSeconds, 0.9), "s")
	m.set("cold_p50_s", quantile(ph.coldSeconds, 0.5), "s")
	m.set("momega_per_s", float64(ph.omegaScores)/ph.wall/1e6, "Momega/s")
	m.set("cpu_s_per_op", ph.cpu/float64(ph.attempted()), "s")
	m.set("setup_s", setupS, "s")
	m.set("peak_rss_mib", rss, "MiB")
	m.set("ok_ratio", 1-float64(ph.failed)/float64(ph.attempted()), "ratio")
	return result{
		Correct:   ph.failed == 0,
		Attempted: ph.attempted(),
		Failed:    ph.failed,
		Metrics:   m,
	}, nil
}

// runTraced produces the per-layer metrics from a traced run and prints
// the workload's attribution table.
func runTraced(w *workload, seed int64, dir string, n int) (result, error) {
	inst, _, err := setupAll(w, seed, dir, n)
	if err != nil {
		return result{}, err
	}
	defer inst.close()
	tr, err := inst.traced(n)
	if err != nil {
		return result{}, err
	}
	for _, line := range tr.table {
		fmt.Println(line)
	}
	return result{Correct: tr.failed == 0, Attempted: tr.attempted, Failed: tr.failed, Metrics: tr.m}, nil
}

// tracedRun is the outcome of a workload's traced passes: the per-layer
// metrics, the attribution table, and the ops attempted and failed.
type tracedRun struct {
	m                 metrics
	table             []string
	attempted, failed int
}

// phase is the outcome of a timed op sequence.
type phase struct {
	opSeconds   []float64 // per-op latency
	coldSeconds []float64 // latency of ops that computed a fresh result
	wall        float64   // the timed window in seconds
	cpu         float64   // process CPU seconds inside the timed window
	omegaScores int64     // ω scores computed inside the window
	failed      int       // failed, refused or incorrect ops
	// work holds the per-op work counts, each checked against the value
	// the seed determines; printed so runs can be compared.
	work map[string]int64
	// verify, when set, checks the ops after the timed window, counting
	// failures and computed ω scores into the phase.
	verify func()
}

func (p *phase) attempted() int { return len(p.opSeconds) }

func (p *phase) workLine() string {
	keys := make([]string, 0, len(p.work))
	for k := range p.work {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, p.work[k]))
	}
	return strings.Join(parts, " ")
}

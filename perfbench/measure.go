package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB returns the process's peak resident set size (Linux
// reports ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostFacts names the host, so numbers from different hosts are never
// compared.
func hostFacts() string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("host: nproc=%d cpu=%q go=%s GOMAXPROCS=%d os=%s/%s",
		runtime.NumCPU(), model, runtime.Version(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH)
}

// gcDelta measures the Go runtime's allocation and GC work over an
// interval of ops.
type gcDelta struct{ before runtime.MemStats }

func startGC() *gcDelta {
	g := &gcDelta{}
	runtime.ReadMemStats(&g.before)
	return g
}

// report sets the runtime.* metrics per op over the interval. On the
// serial workloads cycles and pauses include the collection the
// benchmark forces before each op.
func (g *gcDelta) report(m metrics, ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := float64(ops)
	m.set("runtime.alloc_mib_per_op", float64(after.TotalAlloc-g.before.TotalAlloc)/(1<<20)/n, "MiB")
	m.set("runtime.gc_cycles_per_op", float64(after.NumGC-g.before.NumGC)/n, "count")
	m.set("runtime.gc_pause_s", float64(after.PauseTotalNs-g.before.PauseTotalNs)/1e9/n, "s")
}

// attribution renders the traced run's table: each row's per-op mean
// time and its share of the end-to-end op time.
type attribution struct {
	title string
	total float64 // end-to-end per-op seconds, from the untraced pass
	rows  []attrRow
}

type attrRow struct {
	name    string
	seconds float64
}

func (a *attribution) add(name string, seconds float64) {
	a.rows = append(a.rows, attrRow{name, seconds})
}

// unattributed is the end-to-end time the rows do not account for.
func (a *attribution) unattributed() float64 {
	sum := 0.0
	for _, r := range a.rows {
		sum += r.seconds
	}
	return a.total - sum
}

func (a *attribution) lines(overhead float64) []string {
	out := []string{"attribution: " + a.title,
		fmt.Sprintf("  %-34s %12s %8s", "layer (self time per op)", "seconds", "share")}
	row := func(name string, s float64) {
		share := 0.0
		if a.total > 0 {
			share = 100 * s / a.total
		}
		out = append(out, fmt.Sprintf("  %-34s %12.6f %7.1f%%", name, s, share))
	}
	for _, r := range a.rows {
		row(r.name, r.seconds)
	}
	row("sched.unattributed_s", a.unattributed())
	row("end-to-end op (untraced)", a.total)
	out = append(out, fmt.Sprintf("  %-34s %12.6f", "tracing overhead (traced - untraced)", overhead))
	return out
}

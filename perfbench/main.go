// Command perfbench is the repository's wall-clock benchmark. It runs one
// workload against the public surfaces (cgraph.System in process, or the
// server package driven through the client package over loopback HTTP),
// checks every job's output against an independent oracle, and prints the
// workload's metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with the
// benchmark's tracing off; with --trace 1 they are the per-layer ones. See
// README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"cgraph"
	"cgraph/internal/metrics"
)

// workers is the engine worker count of every workload: the benchmark is
// sized for a 2-core machine.
const workers = 2

type workload struct {
	name string
	why  string
	run  func(cfg runConfig) (*result, error)
}

var workloads = []workload{
	{"batch-8job", "the paper's scenario: eight BSP jobs share partition loads in process", runBatch},
	{"serve-mixed", "open-loop job mix over HTTP, the only async jobs", runServeMixed},
	{"serve-evolving", "deltas beside pinned reads over HTTP", runServeEvolving},
}

// runConfig carries the command line.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

func (c runConfig) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(c.seed*1000003 + stream))
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\nworkloads:\n")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-15s %s\n", w.name, w.why)
		}
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	res, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// phase measures the process's CPU time, allocation and GC activity over
// a stretch of the run.
type phase struct {
	wall   time.Time
	cpu    time.Duration
	before runtime.MemStats
}

func startPhase() *phase {
	p := &phase{}
	runtime.ReadMemStats(&p.before)
	p.cpu = cpuTime()
	p.wall = time.Now()
	return p
}

type phaseCost struct {
	wall, cpu time.Duration
	allocMB   float64
	gcCycles  uint32
	gcPause   time.Duration
	mallocs   uint64
}

func (p *phase) end() phaseCost {
	wall := time.Since(p.wall)
	cpu := cpuTime() - p.cpu
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return phaseCost{
		wall:     wall,
		cpu:      cpu,
		allocMB:  float64(after.TotalAlloc-p.before.TotalAlloc) / (1 << 20),
		gcCycles: after.NumGC - p.before.NumGC,
		gcPause:  time.Duration(after.PauseTotalNs - p.before.PauseTotalNs),
		mallocs:  after.Mallocs - p.before.Mallocs,
	}
}

// setRuntime reports the Go runtime's share of a phase.
func setRuntime(r *result, c phaseCost) {
	r.set("runtime.gc_cycles", "count", float64(c.gcCycles))
	r.set("runtime.gc_pause_ms", "ms", ms(c.gcPause))
	r.set("runtime.mallocs", "count", float64(c.mallocs))
}

// roundP50 is the median engine round duration, in ms, from the round
// histogram the engine keeps for every round.
func roundP50(sys *cgraph.System) float64 {
	h := sys.RoundDurationStats()
	q := metrics.HistogramSnapshot{Bounds: h.Bounds, Counts: h.Counts, Sum: h.Sum, Count: h.Count}.Quantile(0.5)
	if math.IsNaN(q) {
		return 0
	}
	return q * 1000
}

// setFailed reports the failed share of attempted operations.
func setFailed(r *result) {
	r.set("harness.failed_frac", "fraction", float64(r.Failed)/float64(max(r.Attempted, 1)))
}

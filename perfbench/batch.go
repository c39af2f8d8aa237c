package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"cgraph"
	"cgraph/internal/graph"
	"cgraph/internal/memsim"
	"cgraph/model"
	"cgraph/server"
)

// The batch workload's simulated hierarchy: a cache far smaller than the
// graph structure and a memory that does not hold it (hyperlink14 does not
// fit in the paper's DRAM), so every partition load costs virtual time.
const (
	batchCacheBytes = 256 << 10
	batchMemBytes   = 3 << 20
)

// batchEnv is batch-8job's generated input and the engine configuration
// both the System and the layer replay use.
type batchEnv struct {
	edges []model.Edge
	n     int
	parts int
	ref   *refGraph
}

// newBatchEnv generates the graph of one repeat. Repeat r runs on the r-th
// fixed draw of the stand-in's structure, so a run's medians span several
// graphs, and the seed draws the edge weights, which set the shortest and
// widest paths. Drawing the structure from the seed as well made the
// virtual makespan and allocation of a run's median graph vary 10% from
// seed to seed, which is input choice, not the program's behaviour.
func newBatchEnv(cfg runConfig, r int) *batchEnv {
	edges := hyperlink14.generate(rand.New(rand.NewSource(int64(r))))
	weights := cfg.rng(int64(100 + r))
	for i := range edges {
		edges[i].Weight = weight(weights)
	}
	total := int64(len(edges))*16 + int64(hyperlink14.v)*9
	parts := max(4, graph.SuggestNumPartitions(total, batchCacheBytes, workers, 16, 16, batchCacheBytes/8))
	return &batchEnv{edges: edges, n: hyperlink14.v, parts: parts, ref: newRefGraph(hyperlink14.v, edges)}
}

func (b *batchEnv) options() []cgraph.Option {
	return []cgraph.Option{
		cgraph.WithWorkers(workers),
		cgraph.WithCacheSimulation(batchCacheBytes, batchMemBytes),
		cgraph.WithPartitions(b.parts),
	}
}

// load builds a System over the graph; the returned duration is LoadEdges
// (Build + Cut), the workload's set-up time, timed on a freshly collected
// heap.
func (b *batchEnv) load() (*cgraph.System, time.Duration, error) {
	sys := cgraph.NewSystem(b.options()...)
	runtime.GC()
	t0 := time.Now()
	err := sys.LoadEdges(b.n, b.edges)
	return sys, time.Since(t0), err
}

// batchRun is one execution of the eight jobs on a fresh System.
type batchRun struct {
	setup     time.Duration
	cost      phaseCost
	simMS     float64
	latencies []float64 // per job, ms from Run's start to convergence
	iters     []int
	sys       *cgraph.System
}

// runOnce loads a fresh System, submits the eight jobs together, runs them
// to convergence and checks every output.
func (b *batchEnv) runOnce() (*batchRun, error) {
	sys, setup, err := b.load()
	if err != nil {
		return nil, err
	}
	specs := batchJobs()
	reg := server.DefaultRegistry()
	var mu sync.Mutex
	last := map[int]time.Time{}
	stop := sys.OnJobProgress(func(u cgraph.JobUpdate) {
		t := time.Now()
		mu.Lock()
		last[u.JobID] = t
		mu.Unlock()
	})
	defer stop()
	ph := startPhase()
	jobs := make([]*cgraph.Job, len(specs))
	for i, s := range specs {
		prog, err := reg.Build(s.algo, server.ProgramParams{Source: model.VertexID(s.source)})
		if err != nil {
			return nil, err
		}
		if jobs[i], err = sys.Submit(prog); err != nil {
			return nil, err
		}
	}
	rep, err := sys.Run()
	if err != nil {
		return nil, err
	}
	run := &batchRun{setup: setup, cost: ph.end(), simMS: rep.SimulatedMakespanUS / 1000, sys: sys}
	mu.Lock()
	defer mu.Unlock()
	for i, j := range jobs {
		vals, err := j.Results()
		if err != nil {
			return nil, fmt.Errorf("job %s: %w", specs[i].algo, err)
		}
		if err := b.ref.check(specs[i], vals); err != nil {
			return nil, err
		}
		if err := b.ref.selfTest(specs[i], vals); err != nil {
			return nil, err
		}
		run.latencies = append(run.latencies, ms(last[j.ID()].Sub(ph.wall)))
		run.iters = append(run.iters, j.Metrics().Iterations)
	}
	return run, nil
}

// budget says whether another step of a measured loop fits in the run's
// seconds, judging by the slowest step so far; the first min steps always
// run.
type budget struct {
	start   time.Time
	seconds time.Duration
	min     int
	steps   int
	longest time.Duration
	last    time.Time
}

func newBudget(seconds time.Duration, min int) *budget {
	now := time.Now()
	return &budget{start: now, seconds: seconds, min: min, last: now}
}

func (b *budget) next() bool {
	now := time.Now()
	if b.steps > 0 {
		b.longest = max(b.longest, now.Sub(b.last))
	}
	b.last = now
	if b.steps < b.min || now.Add(b.longest).Sub(b.start) <= b.seconds {
		b.steps++
		return true
	}
	return false
}

// batchRepeatEvery sizes batch-8job's measured work: a run makes one
// repeat (graph, set-up, run, checks; 4–5.5 s on a 2-core machine) per
// batchRepeatEvery of its seconds, at least three. The count is fixed by
// the seconds, not by how many repeats fit, so the medians always cover
// the same graphs.
const batchRepeatEvery = 6 * time.Second

// runBatch is batch-8job: fresh runs of the eight-job batch, each on its
// own graph; metrics are medians over the repeats.
func runBatch(cfg runConfig) (*result, error) {
	if cfg.trace {
		return traceBatch(cfg, newBatchEnv(cfg, 0))
	}
	res := &result{Correct: true}
	var setup, makespan, sim, cpu, alloc []float64
	for r := range max(3, int(cfg.seconds/batchRepeatEvery)) {
		res.Attempted += len(batchJobs())
		run, err := newBatchEnv(cfg, r).runOnce()
		if err != nil {
			return nil, err
		}
		setup = append(setup, run.setup.Seconds())
		makespan = append(makespan, run.cost.wall.Seconds())
		sim = append(sim, run.simMS)
		cpu = append(cpu, run.cost.cpu.Seconds())
		alloc = append(alloc, run.cost.allocMB)
	}
	res.set("setup_s", "s", median(setup))
	res.set("makespan_s", "s", median(makespan))
	res.set("sim_makespan_ms", "ms", median(sim))
	res.set("cpu_s", "s", median(cpu))
	res.set("alloc_mb", "MB", median(alloc))
	return res, nil
}

// traceBatch is batch-8job's traced run: one engine run for the engine's
// own counters, then layer replays of the same batch on the same
// partitioned graph, alternately with and without the benchmark's spans.
func traceBatch(cfg runConfig, env *batchEnv) (*result, error) {
	res := &result{Correct: true, Attempted: len(batchJobs())}
	ph := startPhase()
	run, err := env.runOnce()
	if err != nil {
		return nil, err
	}
	st := run.sys.Stats()
	ex := run.sys.ExecStats()
	res.set("core.rounds", "count", float64(st.Rounds))
	res.set("core.round_p50_ms", "ms", roundP50(run.sys))
	res.set("core.queue_wait_p50_ms", "ms", 0)
	res.set("exec.fresh_folds", "count", float64(ex.FreshFolds))
	res.set("exec.barriers_forced", "count", float64(ex.BarriersForced))
	res.set("service.job_latency_p50_ms", "ms", median(run.latencies))
	res.set("service.job_latency_p95_ms", "ms", quantile(run.latencies, 0.95))

	sp := newSpans()
	replay := func(traced bool) (*layerReplay, error) {
		sp.on.Store(traced)
		endBuild := sp.start("graph.build")
		g := graph.Build(env.n, env.edges)
		endBuild()
		endCut := sp.start("graph.cut")
		pg, err := graph.Cut(g, env.edges, graph.Options{NumPartitions: env.parts, CoreSubgraph: true, CoreFraction: 0.05})
		endCut()
		if err != nil {
			return nil, err
		}
		hier := memsim.New(memsim.Config{CacheBytes: batchCacheBytes, MemoryBytes: batchMemBytes, Cost: memsim.DefaultCost()})
		d := newLayerReplay(pg, workers, hier, sp)
		if err := d.replay(batchJobs()); err != nil {
			return nil, err
		}
		return d, checkReplay(d, env.ref, run.iters)
	}
	var traced, plain []float64
	var d *layerReplay
	for i, b := 0, newBudget(cfg.seconds-time.Since(ph.wall), 4); b.next(); i++ {
		on := i%2 == 0
		dr, err := replay(on)
		if err != nil {
			return nil, err
		}
		if on {
			traced = append(traced, dr.wall.Seconds())
			if d == nil {
				d = dr
			}
		} else {
			plain = append(plain, dr.wall.Seconds())
		}
	}
	setReplayMetrics(res, d, sp, len(traced))
	res.set("harness.trace_overhead_pct", "%", 100*(median(traced)/median(plain)-1))
	res.set("harness.gen_late_p95_ms", "ms", 0)
	setServiceMetricsAbsent(res)
	setRuntime(res, ph.end())
	setFailed(res)
	return res, nil
}

// checkReplay holds the layer replay to the engine's work: the same
// iteration count per job, and outputs that pass the oracle.
func checkReplay(d *layerReplay, ref *refGraph, engineIters []int) error {
	specs := batchJobs()
	for i, j := range d.jobs {
		if engineIters != nil && j.Iterations != engineIters[i] {
			return fmt.Errorf("layer replay parity: %s ran %d iterations, the engine %d", specs[i].algo, j.Iterations, engineIters[i])
		}
		if err := ref.check(specs[i], j.Results()); err != nil {
			return fmt.Errorf("layer replay: %w", err)
		}
	}
	return nil
}

// setReplayMetrics reports the per-layer split of the traced layer
// replays, per replay; n is the number of traced replays sp recorded.
func setReplayMetrics(r *result, d *layerReplay, sp *spans, n int) {
	per := func(name string) float64 { return sp.sum(name) / float64(n) }
	r.set("graph.build_ms", "ms", sp.p50("graph.build"))
	r.set("graph.cut_ms", "ms", sp.p50("graph.cut"))
	r.set("sched.plan_ms", "ms", per("sched.plan"))
	r.set("sched.groups_per_round", "count", float64(d.groups)/float64(d.rounds))
	r.set("sched.theta_refits", "count", float64(d.refits))
	c := d.hier.Counters()
	r.set("memsim.loads", "count", float64(c.LoadOps))
	r.set("memsim.load_ms", "ms", per("memsim.load"))
	r.set("memsim.miss_rate", "%", c.MissRate())
	r.set("memsim.bytes_into_cache_mb", "MB", float64(c.BytesIntoCache)/(1<<20))
	r.set("exec.apply_ms", "ms", per("exec.apply"))
	r.set("exec.merge_ms", "ms", per("exec.merge"))
	r.set("exec.push_ms", "ms", per("exec.push"))
	r.set("exec.push_entries", "count", float64(d.counts.pushEntries))
	r.set("exec.edges", "count", float64(d.counts.edges))
	r.set("exec.iterations", "count", float64(d.iterations()))
	r.set("exec.skipped_partitions", "count", float64(d.counts.skipped))
	r.set("pool.tasks", "count", float64(d.counts.tasks))
	r.set("pool.steals", "count", float64(d.counts.steals))
	r.set("pool.stolen", "count", float64(d.counts.stolen))
	r.set("pool.imbalance", "ratio", median(d.imbalance))
	r.set("pool.idle_ms", "ms", ms(d.idle))
}

// setServiceMetricsAbsent reports zero for the service layers a workload
// does not exercise, so every traced run reports the same metric set.
func setServiceMetricsAbsent(r *result) {
	for _, m := range [][2]string{
		{"ingest.flushes", "count"}, {"ingest.coalesced", "count"}, {"ingest.shed", "count"},
		{"ingest.compactions", "count"}, {"ingest.flush_p50_ms", "ms"},
		{"ingest.ack_p50_ms", "ms"}, {"ingest.ack_p95_ms", "ms"},
		{"graph.overlay_p50_ms", "ms"}, {"graph.restructure_p50_ms", "ms"},
		{"graph.parts_rebuilt", "count"}, {"graph.parts_shared", "count"},
		{"storage.snapshots_live", "count"}, {"storage.snapshots_evicted", "count"},
		{"client.submit_rtt_p50_ms", "ms"}, {"client.delta_rtt_p50_ms", "ms"},
		{"client.poll_rtt_p50_ms", "ms"}, {"server.http_p50_ms", "ms"}, {"server.http_errors", "count"},
	} {
		if _, ok := r.Metrics[m[0]]; !ok {
			r.set(m[0], m[1], 0)
		}
	}
}

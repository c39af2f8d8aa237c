package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cgraph"
	"cgraph/api"
	"cgraph/client"
	"cgraph/internal/graph"
	"cgraph/internal/memsim"
	"cgraph/model"
	"cgraph/server"
)

// servicePartitions is the partition count of the served graphs: the
// library's choice without cache simulation (4 per worker), fixed so the
// traced run's layer replay runs on the same partitioned graph.
const servicePartitions = 4 * workers

// service is one running job service: a System behind the server package
// on a loopback listener, and the client that drives it.
type service struct {
	sys  *cgraph.System
	svc  *server.Service
	srv  *http.Server
	tr   *http.Transport
	cl   *client.Client
	done chan struct{}
	// httpErrors counts responses with a 4xx or 5xx status.
	httpErrors atomic.Int64
}

// startService loads the graph, starts the service and its listener, and
// waits until the service answers its readiness probe. The returned
// duration is the workload's set-up time.
func startService(n int, edges []model.Edge, opts []cgraph.Option, sp *spans) (*service, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	s := &service{sys: cgraph.NewSystem(opts...), done: make(chan struct{})}
	if err := s.sys.LoadEdges(n, edges); err != nil {
		return nil, 0, err
	}
	s.svc = server.New(s.sys, server.Config{})
	if err := s.svc.Start(); err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	handler := s.svc.Handler(nil)
	s.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		end := sp.start("server.http")
		handler.ServeHTTP(sw, r)
		end()
		if sw.code >= 400 {
			s.httpErrors.Add(1)
		}
	})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	s.tr = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	s.cl = client.New("http://"+ln.Addr().String(),
		client.WithHTTPClient(&http.Client{Transport: s.tr}), client.WithRetries(0, 0))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		if _, err := s.cl.Readyz(ctx); err == nil {
			break
		} else if ctx.Err() != nil {
			s.stop()
			return nil, 0, fmt.Errorf("service not ready: %w", err)
		}
	}
	return s, time.Since(t0), nil
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// stop shuts the listener, the service and the ingest pipeline down and
// waits for each.
func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // a timeout leaves Serve to exit below
	_ = s.srv.Close()
	<-s.done
	_ = s.svc.Stop(ctx)
	_ = s.sys.CloseIngest()
	s.tr.CloseIdleConnections()
}

// setupService starts the service several times and keeps the last one;
// setup_s is the median start-up time.
func setupService(n int, edges []model.Edge, opts []cgraph.Option, sp *spans) (*service, float64, error) {
	var times []float64
	var s *service
	for i := 0; i < 11; i++ {
		if s != nil {
			s.stop()
		}
		var d time.Duration
		var err error
		if s, d, err = startService(n, edges, opts, sp); err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
	}
	return s, median(times), nil
}

// serveParams describes one open-loop service workload.
type serveParams struct {
	shape   graphShape
	opts    []cgraph.Option
	jobRate float64 // jobs per second
	// burst jobs share each due time. Jobs arriving together overlap the
	// same way in every run; evenly spaced ones overlap or not depending
	// on whether a heavy job happens to finish before the next arrival, a
	// threshold that turns small speed differences into large latency
	// swings from run to run.
	burst int
	// mix is the job mix as (count, algorithm) pairs; every asyncEvery-th
	// job runs async (0: none).
	mix        []any
	asyncEvery int
	// deltaRate batches of deltaSize mutations per second; 0 sends none.
	deltaRate float64
	deltaSize int
}

// sentJob is one submitted job and what became of it.
type sentJob struct {
	spec     jobSpec
	id       string
	due      time.Time
	traced   bool
	pinned   int64
	values   []float64
	latency  float64 // ms, finished_at − due
	queueMS  float64
	finished time.Time
}

const (
	pollEvery    = 25 * time.Millisecond
	drainTimeout = 60 * time.Second
	callTimeout  = 30 * time.Second
)

// runServe runs one open-loop workload: jobs (and delta batches) are sent
// on a fixed schedule from one goroutine, whatever the service's state;
// completion is observed by polling each job's status.
func runServe(cfg runConfig, p serveParams) (*result, error) {
	edges := p.shape.generate(cfg.rng(1))
	schedule := newJobSchedule(cfg.rng(2), p.shape.v, edges, p.asyncEvery, p.mix...)
	deltaRng := cfg.rng(3)
	sp := newSpans()
	s, setup, err := setupService(p.shape.v, edges, p.opts, sp)
	if err != nil {
		return nil, err
	}
	defer s.stop()

	var matMu sync.Mutex
	mat := map[string][]float64{}
	var flushes []float64
	if cfg.trace {
		unregister := s.sys.OnIngestEvent(func(ev cgraph.IngestEvent) {
			matMu.Lock()
			defer matMu.Unlock()
			switch ev.Kind {
			case cgraph.IngestMaterialize:
				mat[ev.Path] = append(mat[ev.Path], ms(ev.Duration))
			case cgraph.IngestFlush:
				flushes = append(flushes, ms(ev.Duration))
			}
		})
		defer unregister()
	}
	var stream *deltaStream
	if p.deltaRate > 0 {
		stream = newDeltaStream(deltaRng, p.shape.v, edges)
	}

	ctx := context.Background()
	call := func(name string, f func(context.Context) error) error {
		c, cancel := context.WithTimeout(ctx, callTimeout)
		defer cancel()
		end := sp.start(name)
		defer end()
		return f(c)
	}
	m0, err := s.cl.Metrics(ctx)
	if err != nil {
		return nil, err
	}

	res := &result{Correct: true}
	var jobs, inflight []*sentJob
	var acks, late []float64
	var latestTS int64
	ph := startPhase()
	start := ph.wall
	end := start.Add(cfg.seconds)
	jobEvery := time.Duration(float64(p.burst) * float64(time.Second) / p.jobRate)
	jobDue, pollDue := start, start
	deltaDue := end
	var deltaEvery time.Duration
	if stream != nil {
		deltaEvery = time.Duration(float64(time.Second) / p.deltaRate)
		deltaDue = start
	}
loop:
	for {
		now := time.Now()
		// In traced runs, the benchmark's spans are on in every other burst
		// period only, so the two halves give the tracing overhead.
		traced := cfg.trace && int(now.Sub(start)/jobEvery)%2 == 0
		sp.on.Store(traced)
		switch {
		case jobDue.Before(end) && !now.Before(jobDue):
			for range p.burst {
				spec := schedule.next()
				j := &sentJob{spec: spec, due: jobDue, traced: traced, pinned: latestTS}
				late = append(late, ms(time.Since(jobDue)))
				res.Attempted++
				ws := api.JobSpec{Algo: spec.algo, Source: spec.source}
				if spec.async {
					ws.ExecMode = string(cgraph.ExecAsync)
				}
				if stream != nil {
					ws.AtTimestamp = &j.pinned
				}
				var st api.JobStatus
				err := call("client.submit", func(c context.Context) (err error) {
					st, err = s.cl.Submit(c, ws)
					return err
				})
				if err != nil {
					res.Failed++
					continue
				}
				j.id = st.ID
				jobs = append(jobs, j)
				inflight = append(inflight, j)
			}
			jobDue = jobDue.Add(jobEvery)
		case deltaDue.Before(end) && !now.Before(deltaDue):
			late = append(late, ms(now.Sub(deltaDue)))
			due := deltaDue
			deltaDue = deltaDue.Add(deltaEvery)
			res.Attempted++
			batch := stream.next(p.deltaSize)
			var ack api.DeltaAck
			err := call("client.delta", func(c context.Context) (err error) {
				ack, err = s.cl.ApplyDelta(c, wireDelta(batch))
				return err
			})
			if err != nil {
				res.Failed++
				continue
			}
			acks = append(acks, ms(time.Since(due)))
			stream.commit(batch, ack.Flushed, ack.Timestamp)
			if ack.Flushed {
				latestTS = ack.Timestamp
			}
		case !now.Before(pollDue):
			pollDue = now.Add(pollEvery)
			still := inflight[:0]
			for _, j := range inflight {
				done, err := poll(s.cl, call, j)
				switch {
				case err != nil:
					res.Failed++
				case !done:
					still = append(still, j)
				}
			}
			clear(inflight[len(still):])
			inflight = still
			if !jobDue.Before(end) && !deltaDue.Before(end) && len(inflight) == 0 {
				break loop
			}
			if now.After(end.Add(drainTimeout)) {
				res.Failed += len(inflight)
				break loop
			}
		default:
			next := pollDue
			if jobDue.Before(end) && jobDue.Before(next) {
				next = jobDue
			}
			if deltaDue.Before(end) && deltaDue.Before(next) {
				next = deltaDue
			}
			time.Sleep(time.Until(next))
		}
	}
	sp.on.Store(false)
	cost := ph.end()
	m1, err := s.cl.Metrics(ctx)
	if err != nil {
		return nil, err
	}

	var lat, queue []float64
	last := start
	for _, j := range jobs {
		if j.values == nil {
			continue
		}
		lat = append(lat, j.latency)
		queue = append(queue, j.queueMS)
		if j.finished.After(last) {
			last = j.finished
		}
	}
	if in := m1.Ingest; in.Coalesced != 0 || in.Cancelled != 0 || in.RemoveMisses != 0 {
		return nil, fmt.Errorf("delta stream was ambiguous: %d coalesced, %d cancelled, %d missed mutations",
			in.Coalesced, in.Cancelled, in.RemoveMisses)
	}
	if err := verifyServe(p, edges, stream, jobs); err != nil {
		return nil, err
	}
	if !cfg.trace {
		res.set("setup_s", "s", setup)
		res.set("makespan_s", "s", last.Sub(start).Seconds())
		res.set("sim_makespan_ms", "ms", (m1.VirtualTimeUS-m0.VirtualTimeUS)/1000)
		res.set("cpu_s", "s", cost.cpu.Seconds())
		res.set("alloc_mb", "MB", cost.allocMB)
		return res, nil
	}

	res.set("service.job_latency_p50_ms", "ms", median(lat))
	res.set("service.job_latency_p95_ms", "ms", quantile(lat, 0.95))
	res.set("core.rounds", "count", float64(m1.Rounds-m0.Rounds))
	res.set("core.round_p50_ms", "ms", roundP50(s.sys))
	res.set("core.queue_wait_p50_ms", "ms", median(queue))
	res.set("exec.fresh_folds", "count", float64(m1.Exec.FreshFolds))
	res.set("exec.barriers_forced", "count", float64(m1.Exec.BarriersForced))
	in := m1.Ingest
	res.set("ingest.flushes", "count", float64(in.Flushes))
	res.set("ingest.coalesced", "count", float64(in.Coalesced))
	res.set("ingest.shed", "count", float64(in.Shed))
	res.set("ingest.compactions", "count", float64(in.Compactions))
	res.set("ingest.ack_p50_ms", "ms", median(acks))
	res.set("ingest.ack_p95_ms", "ms", quantile(acks, 0.95))
	res.set("graph.parts_rebuilt", "count", float64(in.PartsRebuilt))
	res.set("graph.parts_shared", "count", float64(in.PartsShared))
	res.set("storage.snapshots_live", "count", float64(in.SnapshotsLive))
	res.set("storage.snapshots_evicted", "count", float64(in.SnapshotsEvicted))
	matMu.Lock()
	res.set("ingest.flush_p50_ms", "ms", median(flushes))
	res.set("graph.overlay_p50_ms", "ms", median(mat["overlay"]))
	res.set("graph.restructure_p50_ms", "ms", median(mat["restructure"]))
	matMu.Unlock()
	res.set("client.submit_rtt_p50_ms", "ms", sp.p50("client.submit"))
	res.set("client.delta_rtt_p50_ms", "ms", sp.p50("client.delta"))
	res.set("client.poll_rtt_p50_ms", "ms", sp.p50("client.poll"))
	res.set("server.http_p50_ms", "ms", sp.p50("server.http"))
	res.set("server.http_errors", "count", float64(s.httpErrors.Load()))
	res.set("harness.gen_late_p95_ms", "ms", quantile(late, 0.95))
	res.set("harness.trace_overhead_pct", "%", traceOverhead(jobs))
	setRuntime(res, cost)
	setFailed(res)
	return res, traceServeLayers(res, p.shape.v, edges, sp)
}

// traceOverhead compares jobs sent while the benchmark's spans were on with
// those sent while they were off: the median, over traced jobs, of a job's
// latency relative to the untraced median of its own algorithm, as a
// percentage above 1. Comparing within an algorithm keeps the job mix of
// the two halves out of the figure.
func traceOverhead(jobs []*sentJob) float64 {
	plain := map[string][]float64{}
	for _, j := range jobs {
		if j.values != nil && !j.traced {
			plain[j.spec.algo] = append(plain[j.spec.algo], j.latency)
		}
	}
	var ratios []float64
	for _, j := range jobs {
		if base := median(plain[j.spec.algo]); j.values != nil && j.traced && base > 0 {
			ratios = append(ratios, j.latency/base)
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	return 100 * (median(ratios) - 1)
}

// poll reads one job's status; once it is done, it also fetches the
// results. done reports a terminal job; a failed or cancelled job is an
// error.
func poll(cl *client.Client, call func(string, func(context.Context) error) error, j *sentJob) (done bool, err error) {
	var st api.JobStatus
	if err := call("client.poll", func(c context.Context) (err error) {
		st, err = cl.Get(c, j.id)
		return err
	}); err != nil {
		return false, nil // a failed poll is retried at the next tick
	}
	switch st.State {
	case api.JobDone:
	case api.JobFailed, api.JobCancelled:
		return true, fmt.Errorf("job %s %s", j.id, st.State)
	default:
		return false, nil
	}
	if st.Finished == nil || st.Started == nil {
		return true, errors.New("done job without timestamps")
	}
	j.finished = *st.Finished
	j.latency = ms(j.finished.Sub(j.due))
	j.queueMS = ms(st.Started.Sub(st.Submitted))
	var r api.Results
	if err := call("client.results", func(c context.Context) (err error) {
		r, err = cl.Results(c, j.id, api.ResultsOptions{})
		return err
	}); err != nil {
		return true, err
	}
	j.values = make([]float64, len(r.Values))
	for i, x := range r.Values {
		j.values[i] = float64(x)
	}
	return true, nil
}

func wireDelta(batch []mutation) api.Delta {
	d := api.Delta{Mutations: make([]api.Mutation, len(batch))}
	for i, m := range batch {
		d.Mutations[i] = api.Mutation{
			Op:   m.op,
			Slot: m.slot,
			Edge: [3]float64{float64(m.edge.Src), float64(m.edge.Dst), float64(m.edge.Weight)},
		}
	}
	return d
}

// verifyServe checks every finished job against the oracle built from the
// edge multiset of the snapshot it was pinned to, and the oracle against a
// perturbed result of every job kind.
func verifyServe(p serveParams, base []model.Edge, stream *deltaStream, jobs []*sentJob) error {
	byTS := map[int64][]*sentJob{}
	for _, j := range jobs {
		if j.values != nil {
			byTS[j.pinned] = append(byTS[j.pinned], j)
		}
	}
	tested := map[string]bool{}
	check := func(ref *refGraph, js []*sentJob) error {
		for _, j := range js {
			if err := ref.check(j.spec, j.values); err != nil {
				return fmt.Errorf("job %s at snapshot %d: %w", j.id, j.pinned, err)
			}
			if !tested[j.spec.algo] {
				tested[j.spec.algo] = true
				if err := ref.selfTest(j.spec, j.values); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if stream == nil {
		return check(newRefGraph(p.shape.v, base), byTS[0])
	}
	want := map[int64]bool{}
	for ts := range byTS {
		want[ts] = true
	}
	var err error
	stream.snapshots(base, want, func(ts int64, edges []model.Edge) {
		if err == nil {
			err = check(newRefGraph(p.shape.v, edges), byTS[ts])
		}
		delete(want, ts)
	})
	if err == nil && len(want) > 0 {
		err = fmt.Errorf("%d pinned snapshots never acknowledged", len(want))
	}
	return err
}

// traceServeLayers replays the batch-8job mix through the layer replay on
// the service's own partitioned base graph, for the per-layer split of the
// engine's work in this configuration.
func traceServeLayers(res *result, n int, edges []model.Edge, sp *spans) error {
	sp.on.Store(true)
	defer sp.on.Store(false)
	endBuild := sp.start("graph.build")
	g := graph.Build(n, edges)
	endBuild()
	endCut := sp.start("graph.cut")
	pg, err := graph.Cut(g, edges, graph.Options{NumPartitions: servicePartitions})
	endCut()
	if err != nil {
		return err
	}
	d := newLayerReplay(pg, workers, memsim.Unlimited(), sp)
	if err := d.replay(batchJobs()); err != nil {
		return err
	}
	if err := checkReplay(d, newRefGraph(n, edges), nil); err != nil {
		return err
	}
	setReplayMetrics(res, d, sp, 1)
	return nil
}

func serviceOptions() []cgraph.Option {
	return []cgraph.Option{
		cgraph.WithWorkers(workers),
		cgraph.WithCoreSubgraph(false),
		cgraph.WithPartitions(servicePartitions),
	}
}

// runServeMixed is serve-mixed: an open loop of 5 jobs/s, in bursts of 5
// each second, on twitter-sim.
func runServeMixed(cfg runConfig) (*result, error) {
	return runServe(cfg, serveParams{
		shape:   twitter,
		opts:    serviceOptions(),
		jobRate: 5,
		burst:   5,
		// 35% SSSP and 20% BFS from random sources, 20% PageRank, 15%
		// PPR, 10% WCC; a quarter run async.
		mix:        []any{7, "sssp", 4, "bfs", 4, "pagerank", 3, "ppr", 2, "wcc"},
		asyncEvery: 4,
	})
}

// runServeEvolving is serve-evolving: 40 delta batches/s of 50 mutations
// beside 2 pinned reads/s, in bursts of 4 every 2 s, on ukunion-sim. Flushes happen on the count
// trigger at 500 pending mutations only (the age window outlasts the run),
// so every snapshot's timestamp comes back in an ack; 64 snapshots are
// retained, so eviction happens.
func runServeEvolving(cfg runConfig) (*result, error) {
	opts := append(serviceOptions(),
		cgraph.WithIngestBatch(500),
		cgraph.WithIngestWindow(time.Hour),
		cgraph.WithRetainSnapshots(64),
	)
	return runServe(cfg, serveParams{
		shape:     ukunion,
		opts:      opts,
		jobRate:   2,
		burst:     4,
		mix:       []any{1, "sssp", 1, "bfs", 1, "wcc", 1, "pagerank"},
		deltaRate: 40,
		deltaSize: 50,
	})
}

package main

import (
	"fmt"
	"math"
	"time"

	"cgraph/internal/exec"
	"cgraph/internal/graph"
	"cgraph/internal/memsim"
	"cgraph/internal/pool"
	"cgraph/internal/sched"
	"cgraph/model"
	"cgraph/server"
)

// engineBalance is the engine's default task-granularity multiplier.
const engineBalance = 4

// layerReplay replays a batch of BSP jobs through the layers' public
// functions — sched.Scheduler.Plan, memsim.Hierarchy.Load, the exec.Job
// apply/merge/push steps and pool.Pool.Run — in the order one engine round
// calls them, timing each call with the benchmark's own spans. It exists
// only in traced runs, to split a batch's time across layers; its
// iteration counts are checked against the engine's so the split
// describes the same work.
type layerReplay struct {
	pg      *graph.PGraph
	workers int
	hier    *memsim.Hierarchy
	sp      *spans

	jobs   []*exec.Job
	pool   *pool.Pool
	wall   time.Duration
	rounds int
	groups int
	refits int
	counts struct {
		pushEntries, edges, skipped, tasks, steals, stolen int64
	}
	imbalance []float64
	idle      time.Duration
}

func newLayerReplay(pg *graph.PGraph, workers int, hier *memsim.Hierarchy, sp *spans) *layerReplay {
	return &layerReplay{pg: pg, workers: workers, hier: hier, sp: sp, pool: pool.New(workers)}
}

// replay runs specs to convergence.
func (d *layerReplay) replay(specs []jobSpec) error {
	reg := server.DefaultRegistry()
	for i, s := range specs {
		prog, err := reg.Build(s.algo, server.ProgramParams{Source: model.VertexID(s.source)})
		if err != nil {
			return err
		}
		d.jobs = append(d.jobs, exec.NewJob(i, prog, d.pg))
	}
	sc := sched.New(sched.Priority)
	sc.ObserveSnapshot(d.pg)
	cPrev := map[int64]float64{}
	start := time.Now()
	live := d.jobs
	for len(live) > 0 {
		if d.rounds++; d.rounds > 1<<20 {
			return fmt.Errorf("layer replay: no convergence")
		}
		remaining := make(map[*exec.Job]map[int64]int, len(live))
		foot := make([]sched.JobFootprint, 0, len(live))
		byID := map[int]*exec.Job{}
		for _, j := range live {
			byID[j.ID] = j
			rem := map[int64]int{}
			jf := sched.JobFootprint{JobID: j.ID}
			active := j.PT.ActiveParts()
			for _, pid := range active {
				p := j.PG.Parts[pid]
				rem[p.UID] = pid
				jf.Units = append(jf.Units, p)
				jf.Active = append(jf.Active, j.PT.ActiveCount[pid])
			}
			d.counts.skipped += int64(len(j.PG.Parts) - len(active))
			remaining[j] = rem
			foot = append(foot, jf)
		}
		end := d.sp.start("sched.plan")
		plan := sc.Plan(foot, cPrev)
		end()
		d.groups += len(plan)
		for _, g := range plan {
			for _, u := range g.Units {
				var items []unitJob
				for _, id := range u.Jobs {
					j := byID[id]
					if pid, ok := remaining[j][u.Part.UID]; ok && !j.Done {
						items = append(items, unitJob{j: j, pid: pid})
					}
				}
				if len(items) == 0 {
					continue
				}
				d.processUnit(u.Part, items)
				for _, it := range items {
					delete(remaining[it.j], u.Part.UID)
					if len(remaining[it.j]) == 0 {
						d.finishIteration(it.j)
					}
				}
			}
		}
		var still []*exec.Job
		for _, j := range live {
			if !j.Done && len(remaining[j]) == 0 && !j.PT.HasActive() {
				d.finishIteration(j)
			}
			if !j.Done {
				still = append(still, j)
			}
		}
		clear(cPrev)
		for _, j := range still {
			for pid, s := range j.TakeDeltaStats() {
				if s != 0 {
					cPrev[j.PG.Parts[pid].UID] += s
				}
			}
		}
		live = still
	}
	d.wall = time.Since(start)
	d.refits = sc.Refits()
	return nil
}

type unitJob struct {
	j   *exec.Job
	pid int
}

func (d *layerReplay) load(id memsim.ItemID, bytes int64, pin bool) {
	end := d.sp.start("memsim.load")
	d.hier.Load(id, bytes, pin)
	end()
}

// processUnit loads one partition version and triggers its jobs in
// batches of at most one job per worker, as the engine does.
func (d *layerReplay) processUnit(p *graph.Partition, items []unitJob) {
	sid := memsim.ItemID{Kind: memsim.Struct, UID: p.UID, Job: -1}
	d.load(sid, p.StructBytes, true)
	for range items[1:] {
		d.load(sid, p.StructBytes, false)
	}
	for lo := 0; lo < len(items); lo += d.workers {
		batch := items[lo:min(lo+d.workers, len(items))]
		for _, it := range batch {
			d.load(memsim.ItemID{Kind: memsim.Private, UID: p.UID, Job: int32(it.j.ID)}, it.j.PT.Bytes[it.pid], false)
		}
		d.trigger(batch)
	}
	d.hier.Unpin(sid)
}

type replayTask struct {
	it unitJob
	r  exec.Range
	sc exec.Scratch
	st exec.Stats
}

// trigger runs the apply and merge phases of one batch on the pool.
func (d *layerReplay) trigger(batch []unitJob) {
	var total int64
	for _, it := range batch {
		for _, r := range it.j.SliceActive(it.pid, math.MaxInt64, nil) {
			total += r.Weight
		}
	}
	target := int64(float64(total)/(float64(d.workers)*engineBalance)) + 1
	var tasks []*replayTask
	for _, it := range batch {
		for _, r := range it.j.SliceActive(it.pid, target, nil) {
			tasks = append(tasks, &replayTask{it: it, r: r})
		}
	}
	busy := make([]time.Duration, d.workers)
	timed := d.sp.enabled()
	ptasks := make([]pool.Task, len(tasks))
	for i, t := range tasks {
		ptasks[i] = pool.Task{Weight: t.r.Weight, Run: func(w int) {
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			t.st = t.it.j.ApplyRange(t.it.pid, t.r, &t.sc)
			if timed {
				busy[w] += time.Since(t0)
			}
		}}
	}
	applySt := d.runPool("exec.apply", ptasks, busy)
	d.imbalance = append(d.imbalance, applySt.Imbalance(d.workers))
	clear(busy)
	var mtasks []pool.Task
	for _, it := range batch {
		var scs []*exec.Scratch
		var w int64
		for _, t := range tasks {
			if t.it.j == it.j {
				scs = append(scs, &t.sc)
				d.counts.edges += t.st.Edges
				w += int64(t.sc.Len())
			}
		}
		if len(scs) == 0 {
			continue
		}
		mtasks = append(mtasks, pool.Task{Weight: w, Run: func(wk int) {
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			it.j.Merge(it.pid, scs...)
			if timed {
				busy[wk] += time.Since(t0)
			}
		}})
	}
	d.runPool("exec.merge", mtasks, busy)
}

// runPool runs tasks on the pool, recording the phase's busy time (the sum
// of its task spans) and the pool's idle time: workers × Run wall − busy.
func (d *layerReplay) runPool(phase string, tasks []pool.Task, busy []time.Duration) pool.Stats {
	t0 := time.Now()
	st := d.pool.Run(tasks)
	wall := time.Since(t0)
	d.counts.tasks += st.Tasks
	d.counts.steals += st.Steals
	d.counts.stolen += st.Stolen
	if d.sp.enabled() {
		var sum time.Duration
		for _, b := range busy {
			sum += b
		}
		d.sp.add(phase, sum)
		d.idle += time.Duration(d.workers)*wall - sum
	}
	return st
}

// finishIteration closes one iteration: the Algorithm 2 push, then the
// private-table loads the push touched.
func (d *layerReplay) finishIteration(j *exec.Job) {
	if j.Done {
		return
	}
	end := d.sp.start("exec.push")
	sum := j.FinishIteration()
	end()
	d.counts.pushEntries += sum.Entries
	for _, tp := range sum.TouchedParts {
		p := j.PG.Parts[tp]
		d.load(memsim.ItemID{Kind: memsim.Private, UID: p.UID, Job: int32(j.ID)}, j.PT.Bytes[tp], false)
	}
}

// iterations is the total iteration count over the replayed jobs.
func (d *layerReplay) iterations() int {
	n := 0
	for _, j := range d.jobs {
		n += j.Iterations
	}
	return n
}

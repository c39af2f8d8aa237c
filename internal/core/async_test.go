package core

import (
	"context"
	"math"
	"testing"

	"cgraph/algo"
	"cgraph/internal/exec"
	"cgraph/internal/gen"
	"cgraph/internal/refimpl"
)

// TestEngineAsyncModesParity drives async and delayed jobs through the
// full round loop (frontier slicing, chained pool tasks, pushes) alongside
// a BSP job and pins result parity: exact for SSSP, tolerance for
// PageRank, with async converging in fewer iterations than BSP and the
// fresh-fold / per-mode counters populated.
func TestEngineAsyncModesParity(t *testing.T) {
	edges := gen.RMAT(31, 400, 8000, 0.57, 0.19, 0.19)
	pg := buildPG(t, edges, 400, 8, true)
	e := NewSingle(Config{Workers: 4, Hier: smallHier()}, pg)

	prBSP := e.Submit(&algo.PageRank{Damping: 0.85, Epsilon: 1e-9}, 0)
	prAsync := e.SubmitWith(context.Background(), &algo.PageRank{Damping: 0.85, Epsilon: 1e-9}, SubmitOpts{Mode: exec.ModeAsync})
	prDelayed := e.SubmitWith(context.Background(), &algo.PageRank{Damping: 0.85, Epsilon: 1e-9}, SubmitOpts{Mode: exec.ModeDelayed, Staleness: 2})
	ssAsync := e.SubmitWith(context.Background(), algo.NewSSSP(0), SubmitOpts{Mode: exec.ModeAsync})
	ssDelayed := e.SubmitWith(context.Background(), algo.NewSSSP(0), SubmitOpts{Mode: exec.ModeDelayed})

	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 5 {
		t.Fatalf("finished jobs = %d, want 5", len(rep.Jobs))
	}

	wantPR := refimpl.PageRank(pg.G, 0.85, 1e-12, 3000)
	for _, id := range []int{prBSP, prAsync, prDelayed} {
		res, err := e.Results(id)
		if err != nil {
			t.Fatal(err)
		}
		for v := range res {
			if math.Abs(res[v]-wantPR[v]) > 1e-6 {
				t.Fatalf("pagerank job %d vertex %d: got %v want %v", id, v, res[v], wantPR[v])
			}
		}
	}
	wantSS := refimpl.SSSP(pg.G, 0)
	for _, id := range []int{ssAsync, ssDelayed} {
		res, err := e.Results(id)
		if err != nil {
			t.Fatal(err)
		}
		for v := range res {
			if res[v] != wantSS[v] && !(math.IsInf(res[v], 1) && math.IsInf(wantSS[v], 1)) {
				t.Fatalf("sssp job %d vertex %d: got %v want %v", id, v, res[v], wantSS[v])
			}
		}
	}

	jb, _ := e.Job(prBSP)
	ja, _ := e.Job(prAsync)
	jd, _ := e.Job(prDelayed)
	if ja.Iterations >= jb.Iterations {
		t.Fatalf("async PageRank took %d iterations, BSP %d — fresh state should converge faster",
			ja.Iterations, jb.Iterations)
	}
	if ja.FreshFolds == 0 || jd.FreshFolds == 0 {
		t.Fatalf("fresh folds not recorded: async=%d delayed=%d", ja.FreshFolds, jd.FreshFolds)
	}
	if jb.FreshFolds != 0 || jb.BarriersSkipped != 0 {
		t.Fatalf("BSP job recorded async counters: fresh=%d skipped=%d", jb.FreshFolds, jb.BarriersSkipped)
	}

	st := e.ExecStats()
	if st.FreshFolds == 0 {
		t.Fatal("engine FreshFolds counter empty")
	}
	if st.BarriersSkipped == 0 || st.BarriersForced == 0 {
		t.Fatalf("delayed barrier counters empty: skipped=%d forced=%d", st.BarriersSkipped, st.BarriersForced)
	}
	if st.BSPJobs != 1 || st.AsyncJobs != 2 || st.DelayedJobs != 2 {
		t.Fatalf("per-mode job counts bsp=%d async=%d delayed=%d, want 1/2/2",
			st.BSPJobs, st.AsyncJobs, st.DelayedJobs)
	}
}

// TestEngineAsyncDeterministicVirtualTime: fresh-state chains are
// sequenced, so two identical async runs must produce the identical
// simulated makespan and iteration counts (single-run determinism is the
// repo-wide benchmark contract).
func TestEngineAsyncDeterministicVirtualTime(t *testing.T) {
	edges := gen.RMAT(17, 300, 5000, 0.57, 0.19, 0.19)
	run := func() (float64, int) {
		pg := buildPG(t, edges, 300, 6, true)
		e := NewSingle(Config{Workers: 4, Hier: smallHier()}, pg)
		id := e.SubmitWith(context.Background(), &algo.PageRank{Damping: 0.85, Epsilon: 1e-9}, SubmitOpts{Mode: exec.ModeAsync})
		rep, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		j, _ := e.Job(id)
		return rep.Makespan, j.Iterations
	}
	m1, i1 := run()
	m2, i2 := run()
	if m1 != m2 || i1 != i2 {
		t.Fatalf("async run not deterministic: makespan %v vs %v, iterations %d vs %d", m1, m2, i1, i2)
	}
}

// TestEngineBSPPlanUnchangedByModeFields: an all-BSP workload must not
// record any fresh/barrier/mode activity — the default path is untouched.
func TestEngineBSPPlanUnchangedByModeFields(t *testing.T) {
	edges := gen.RMAT(9, 200, 3000, 0.57, 0.19, 0.19)
	pg := buildPG(t, edges, 200, 4, true)
	e := NewSingle(Config{Workers: 4, Hier: smallHier()}, pg)
	e.Submit(&algo.PageRank{Damping: 0.85, Epsilon: 1e-8}, 0)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.ExecStats()
	if st.FreshFolds != 0 || st.BarriersSkipped != 0 || st.BarriersForced != 0 {
		t.Fatalf("BSP-only run recorded async counters: %+v", st)
	}
	if st.AsyncJobs != 0 || st.DelayedJobs != 0 || st.BSPJobs != 1 {
		t.Fatalf("per-mode counts wrong for BSP-only run: %+v", st)
	}
}

// TestEngineStaticChunkingParity runs BSP and async jobs under the legacy
// static vertex-count decomposition with fewer workers than jobs, so
// trigger batches of different sizes reuse the same task slab and
// materialized-locals buffers, and pins results against the references.
func TestEngineStaticChunkingParity(t *testing.T) {
	edges := gen.RMAT(33, 400, 8000, 0.57, 0.19, 0.19)
	pg := buildPG(t, edges, 400, 8, true)
	e := NewSingle(Config{Workers: 2, Hier: smallHier(), StaticChunking: true}, pg)

	pr := e.Submit(&algo.PageRank{Damping: 0.85, Epsilon: 1e-9}, 0)
	prAsync := e.SubmitWith(context.Background(), &algo.PageRank{Damping: 0.85, Epsilon: 1e-9}, SubmitOpts{Mode: exec.ModeAsync})
	ss := e.Submit(algo.NewSSSP(0), 0)
	ssAsync := e.SubmitWith(context.Background(), algo.NewSSSP(0), SubmitOpts{Mode: exec.ModeAsync})
	bf := e.Submit(algo.NewBFS(0), 0)

	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	wantPR := refimpl.PageRank(pg.G, 0.85, 1e-12, 3000)
	for _, id := range []int{pr, prAsync} {
		res, err := e.Results(id)
		if err != nil {
			t.Fatal(err)
		}
		for v := range res {
			if math.Abs(res[v]-wantPR[v]) > 1e-6 {
				t.Fatalf("pagerank job %d vertex %d: got %v want %v", id, v, res[v], wantPR[v])
			}
		}
	}
	exact := map[int][]float64{ss: refimpl.SSSP(pg.G, 0), ssAsync: refimpl.SSSP(pg.G, 0), bf: refimpl.BFS(pg.G, 0)}
	for id, want := range exact {
		res, err := e.Results(id)
		if err != nil {
			t.Fatal(err)
		}
		for v := range res {
			if res[v] != want[v] && !(math.IsInf(res[v], 1) && math.IsInf(want[v], 1)) {
				t.Fatalf("job %d vertex %d: got %v want %v", id, v, res[v], want[v])
			}
		}
	}
}
